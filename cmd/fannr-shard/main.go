// Command fannr-shard serves FANN_R queries over a sharded scatter-gather
// deployment: the road network is cut into S shards along the G-tree
// partition tree, each shard host answers queries over the P-objects it
// owns, and a coordinator fans queries only to the shards whose g_φ
// lower bound can still beat the running k-th answer.
//
// Three modes:
//
//	fannr-shard -mode all -dataset NW -scale 0.015625 -shards 4 -addr :8080
//	    One process: S in-process shard hosts plus the coordinator. Every
//	    call still round-trips the framed RPC codec, so this is the HTTP
//	    deployment minus the sockets — the default for benchmarks and for
//	    single-machine serving.
//
//	fannr-shard -mode host -dataset NW -scale 0.015625 -shard-id 2 -addr :7102
//	    One shard host: serves POST /shard/fann (framed RPC) and
//	    GET /shard/healthz. Every host loads the full graph (exact
//	    network distances need it); only the object workload shards.
//
//	fannr-shard -mode coord -dataset NW -scale 0.015625 -addr :8080 \
//	    -targets http://h0:7100,http://h1:7101,http://h2:7102
//	    The coordinator: builds the partition plan (S = number of
//	    targets, which must match the hosts' -shard-id layout for the
//	    same dataset) and scatter-gathers over the targets.
//
// The coordinator's public surface matches fannr-server where it
// overlaps: POST /fann takes the same request body and answers the same
// shape plus the scatter-gather accounting (degraded, shards_contacted,
// shards_pruned); errors carry the same {"error","code"} taxonomy with
// Retry-After on sheds, relayed end-to-end from the shard that produced
// them. GET /readyz reports per-shard breaker state and flips to 503
// only when every shard is out. GET /metrics exposes fannr_shard_*.
package main

import (
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"fannr"
	"fannr/internal/core"
	"fannr/internal/gtree"
	"fannr/internal/obs"
	"fannr/internal/resil"
	"fannr/internal/server"
	"fannr/internal/shard"
)

type config struct {
	mode             string
	dataset          string
	scale            float64
	addr             string
	shards           int
	shardID          int
	targets          string
	engines          string
	cacheEntries     int
	maxFanout        int
	breakerThreshold int
	breakerCooldown  time.Duration
	drainTimeout     time.Duration
}

// newFlags registers the command line on a FlagSet of its own, so the
// flag surface is one function a test can read.
func newFlags(cfg *config) *flag.FlagSet {
	fs := flag.NewFlagSet("fannr-shard", flag.ExitOnError)
	fs.StringVar(&cfg.mode, "mode", "all", "all (hosts + coordinator in-process), host (one shard host), coord (coordinator over -targets)")
	fs.StringVar(&cfg.dataset, "dataset", "NW", "Table III dataset name (synthetic)")
	fs.Float64Var(&cfg.scale, "scale", 1.0/64, "dataset scale")
	fs.StringVar(&cfg.addr, "addr", ":8080", "listen address")
	fs.IntVar(&cfg.shards, "shards", 4, "shard count S (mode all; mode coord infers S from -targets)")
	fs.IntVar(&cfg.shardID, "shard-id", 0, "this host's shard index (mode host)")
	fs.StringVar(&cfg.targets, "targets", "", "comma-separated shard host base URLs, in shard order (mode coord)")
	fs.StringVar(&cfg.engines, "engines", "INE", "indexes each host builds: comma-separated from PHL,GTree (INE and A* need none); every engine they support is served")
	fs.IntVar(&cfg.cacheEntries, "cache-entries", 4096, "coordinator exact-result cache capacity (0 = disabled); keys are stamped with the plan epoch and healthy shard set")
	fs.IntVar(&cfg.maxFanout, "max-fanout", 4, "concurrent shard calls per wave; waves run best-bound-first so early answers prune later shards")
	fs.IntVar(&cfg.breakerThreshold, "breaker-threshold", 3, "consecutive shard failures that open its breaker (0 = disabled)")
	fs.DurationVar(&cfg.breakerCooldown, "breaker-cooldown", resil.DefaultCooldown, "open-breaker cooldown before a half-open probe (0 = the default)")
	fs.DurationVar(&cfg.drainTimeout, "drain-timeout", 15*time.Second, "graceful-shutdown drain budget")
	return fs
}

func main() {
	var cfg config
	newFlags(&cfg).Parse(os.Args[1:])
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "fannr-shard:", err)
		os.Exit(1)
	}
}

// hostCacheEntries sizes each host's result cache.
const hostCacheEntries = 1024

// newHosts builds the hosts with the given shard ids, each serving every
// catalogue engine the -engines indexes support, over indexes built once
// and shared read-only by every in-process host.
func newHosts(g *fannr.Graph, engines string, ids ...int) ([]*shard.Host, error) {
	kinds, err := core.ParseIndexes(engines)
	if err != nil {
		return nil, fmt.Errorf("-engines: %w", err)
	}
	ix, err := server.BuildIndexes(g, kinds)
	if err != nil {
		return nil, err
	}
	hosts := make([]*shard.Host, len(ids))
	for i, id := range ids {
		hosts[i] = shard.NewHost(id, g, shard.HostOptions{CacheEntries: hostCacheEntries})
		if err := hosts[i].AddCatalogue(ix); err != nil {
			return nil, err
		}
	}
	return hosts, nil
}

// coordinatorOptions is the flags → options step.
func coordinatorOptions(cfg config) shard.CoordinatorOptions {
	return shard.CoordinatorOptions{
		BreakerThreshold: cfg.breakerThreshold,
		BreakerCooldown:  cfg.breakerCooldown,
		MaxFanout:        cfg.maxFanout,
		CacheEntries:     cfg.cacheEntries,
		Registry:         obs.NewRegistry(),
	}
}

// buildPlan cuts the partition plan the coordinator routes by.
func buildPlan(g *fannr.Graph, shards int) (*shard.Plan, error) {
	fmt.Println("building partition tree...")
	tr, err := gtree.Build(g, gtree.Options{})
	if err != nil {
		return nil, err
	}
	return shard.NewPlan(g, tr, shard.PlanOptions{Shards: shards})
}

func run(cfg config) error {
	g, err := fannr.LoadDataset(cfg.dataset, cfg.scale)
	if err != nil {
		return err
	}
	fmt.Printf("network: %s |V|=%d |E|=%d\n", g.Name(), g.NumNodes(), g.NumEdges())

	var handler http.Handler
	switch cfg.mode {
	case "host":
		hosts, err := newHosts(g, cfg.engines, cfg.shardID)
		if err != nil {
			return err
		}
		fmt.Printf("shard host %d\n", cfg.shardID)
		handler = hosts[0].Handler()

	case "all", "coord":
		var transports []shard.Transport
		S := cfg.shards
		if cfg.mode == "coord" {
			var urls []string
			for _, t := range strings.Split(cfg.targets, ",") {
				if t = strings.TrimSpace(t); t != "" {
					urls = append(urls, t)
				}
			}
			if len(urls) == 0 {
				return errors.New("-mode coord needs -targets")
			}
			S = len(urls)
			for _, u := range urls {
				transports = append(transports, &shard.HTTPTransport{URL: u})
			}
		}
		plan, err := buildPlan(g, S)
		if err != nil {
			return err
		}
		if cfg.mode == "all" {
			ids := make([]int, S)
			for s := range ids {
				ids[s] = s
			}
			hosts, err := newHosts(g, cfg.engines, ids...)
			if err != nil {
				return err
			}
			for _, h := range hosts {
				transports = append(transports, shard.InProc{Host: h})
			}
		}
		coord, err := shard.NewCoordinator(plan, transports, coordinatorOptions(cfg))
		if err != nil {
			return err
		}
		for s := 0; s < S; s++ {
			fmt.Printf("shard %d: %d vertices via %s\n", s, len(plan.Group(s)), transports[s].Target())
		}
		fmt.Printf("plan: S=%d epoch=%d\n", plan.Shards(), plan.Epoch)
		handler = coord.Handler()

	default:
		return fmt.Errorf("-mode must be all, host, or coord (got %q)", cfg.mode)
	}

	return server.ListenAndDrain(cfg.addr, handler, cfg.drainTimeout, "mode "+cfg.mode, nil)
}
