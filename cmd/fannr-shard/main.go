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
	workers          int
	cacheEntries     int
	hostCache        int
	maxFanout        int
	breakerThreshold int
	breakerCooldown  time.Duration
	retryAfter       time.Duration
	drainTimeout     time.Duration
}

func main() {
	var cfg config
	flag.StringVar(&cfg.mode, "mode", "all", "all (hosts + coordinator in-process), host (one shard host), coord (coordinator over -targets)")
	flag.StringVar(&cfg.dataset, "dataset", "NW", "Table III dataset name (synthetic)")
	flag.Float64Var(&cfg.scale, "scale", 1.0/64, "dataset scale")
	flag.StringVar(&cfg.addr, "addr", ":8080", "listen address")
	flag.IntVar(&cfg.shards, "shards", 4, "shard count S (mode all; mode coord infers S from -targets)")
	flag.IntVar(&cfg.shardID, "shard-id", 0, "this host's shard index (mode host)")
	flag.StringVar(&cfg.targets, "targets", "", "comma-separated shard host base URLs, in shard order (mode coord)")
	flag.StringVar(&cfg.engines, "engines", "INE", "engines each host builds: comma-separated from INE,A*,PHL,GTree,CH")
	flag.IntVar(&cfg.workers, "workers", 0, "index-build workers (0 = GOMAXPROCS)")
	flag.IntVar(&cfg.cacheEntries, "cache-entries", 4096, "coordinator exact-result cache capacity (0 = disabled); keys are stamped with the plan epoch and healthy shard set")
	flag.IntVar(&cfg.hostCache, "host-cache-entries", 1024, "per-host result cache capacity (0 = disabled)")
	flag.IntVar(&cfg.maxFanout, "max-fanout", 4, "concurrent shard calls per wave; waves run best-bound-first so early answers prune later shards")
	flag.IntVar(&cfg.breakerThreshold, "breaker-threshold", 3, "consecutive shard failures that open its breaker (< 0 disables)")
	flag.DurationVar(&cfg.breakerCooldown, "breaker-cooldown", 5*time.Second, "open-breaker cooldown before a half-open probe")
	flag.DurationVar(&cfg.retryAfter, "retry-after", time.Second, "Retry-After hint attached to 503 responses")
	flag.DurationVar(&cfg.drainTimeout, "drain-timeout", 15*time.Second, "graceful-shutdown drain budget")
	flag.Parse()
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "fannr-shard:", err)
		os.Exit(1)
	}
}

// buildEngines assembles the named engine factories over shared
// read-only indexes (built once, shared by every in-process host).
func buildEngines(g *fannr.Graph, names string, workers int) (map[string]core.EngineFactory, []string, error) {
	factories := map[string]core.EngineFactory{}
	var order []string
	add := func(name string, f core.EngineFactory) {
		factories[name] = f
		order = append(order, name)
	}
	for _, name := range strings.Split(names, ",") {
		switch strings.TrimSpace(name) {
		case "":
		case "INE":
			add("INE", func() core.GPhi { return core.NewINE(g) })
		case "A*":
			add("A*", func() core.GPhi { return core.NewOracleGPhi("A*", fannr.NewAStar(g)) })
		case "PHL":
			fmt.Println("building hub labels...")
			ix, err := fannr.BuildPHL(g, fannr.PHLOptions{})
			if err != nil {
				return nil, nil, err
			}
			fmt.Printf("hub labels: %d entries, %.1f per node\n", ix.Entries(), ix.AvgLabelSize())
			add("PHL", func() core.GPhi { return core.NewOracleGPhi("PHL", ix) })
		case "GTree":
			fmt.Println("building G-tree engine...")
			tr, err := fannr.BuildGTree(g, fannr.GTreeOptions{Workers: workers})
			if err != nil {
				return nil, nil, err
			}
			add("GTree", func() core.GPhi { return core.NewGTreeGPhi(tr) })
		case "CH":
			fmt.Println("building contraction hierarchy...")
			ix, err := fannr.BuildCH(g, fannr.CHOptions{Workers: workers})
			if err != nil {
				return nil, nil, err
			}
			add("CH", func() core.GPhi { return core.NewOracleGPhi("CH", ix.NewQuerier()) })
		default:
			return nil, nil, fmt.Errorf("unknown engine %q", name)
		}
	}
	if len(order) == 0 {
		return nil, nil, errors.New("-engines selected no engines")
	}
	return factories, order, nil
}

func newHost(id int, g *fannr.Graph, cfg config, factories map[string]core.EngineFactory, order []string) (*shard.Host, error) {
	h := shard.NewHost(id, g, shard.HostOptions{
		CacheEntries: cfg.hostCache,
		RetryAfter:   cfg.retryAfter,
	})
	for _, name := range order {
		if err := h.AddEngine(name, factories[name]); err != nil {
			return nil, err
		}
	}
	return h, nil
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
		factories, order, err := buildEngines(g, cfg.engines, cfg.workers)
		if err != nil {
			return err
		}
		h, err := newHost(cfg.shardID, g, cfg, factories, order)
		if err != nil {
			return err
		}
		fmt.Printf("shard host %d: engines %s\n", cfg.shardID, strings.Join(order, ", "))
		handler = h.Handler()

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
			factories, order, err := buildEngines(g, cfg.engines, cfg.workers)
			if err != nil {
				return err
			}
			for s := 0; s < S; s++ {
				h, err := newHost(s, g, cfg, factories, order)
				if err != nil {
					return err
				}
				transports = append(transports, shard.InProc{Host: h})
			}
		}
		coord, err := shard.NewCoordinator(plan, transports, shard.CoordinatorOptions{
			BreakerThreshold: cfg.breakerThreshold,
			BreakerCooldown:  cfg.breakerCooldown,
			MaxFanout:        cfg.maxFanout,
			RetryAfter:       cfg.retryAfter,
			CacheEntries:     cfg.cacheEntries,
			Registry:         obs.NewRegistry(),
		})
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
