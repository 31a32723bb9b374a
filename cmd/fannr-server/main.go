// Command fannr-server serves FANN_R queries over HTTP.
//
//	fannr-server -dataset NW -scale 0.015625 -addr :8080 -engines PHL,GTree \
//	    -query-timeout 5s -max-inflight 64 -queue-depth 128 \
//	    -breaker-threshold 5 -fallback PHL=INE
//
// Endpoints:
//
//	GET  /health   liveness (alias of /healthz)
//	GET  /healthz  liveness: 200 while the process serves, 503 once draining
//	GET  /readyz   readiness: 503 while draining or any circuit breaker is open
//	GET  /meta     dataset, engines, per-pool gauges, limits, fallback ladder
//	GET  /metrics  Prometheus text exposition (request/compute histograms,
//	               op counters, pool gauges, breaker states)
//	POST /fann     {"p":[...],"q":[...],"phi":0.5,"agg":"max","algo":"ier",
//	               "engine":"IER-PHL","k":1}
//	POST /dist     {"u":1,"v":2}
//	POST /admin/reload  hot-swap every file-backed index (see below)
//
// With -pprof, net/http/pprof is mounted under /debug/pprof/. With -log,
// every /fann request emits one structured JSON log line to stderr
// (request id, engine, outcome, stage timings, op counts); the
// X-Request-ID response header carries the same id either way.
//
// Request lifecycle: every /fann query is bounded by -query-timeout and
// by its client — a disconnect or deadline aborts the search promptly and
// answers 504 (code "timeout"). Admission is bounded by -max-inflight per
// engine pool with a -queue-depth wait queue; beyond that requests are
// shed with 503 (code "overloaded") and a Retry-After hint. With
// -breaker-threshold set, an engine that fails that many times in a row
// has its circuit opened and requests fall back along the -fallback
// ladder (answers are stamped "degraded":true); without a fallback they
// shed. With -cache-entries (default 4096) /fann answers repeat queries
// from a semantic cache: exact repeats skip the engine entirely, and
// queries sharing the same Q reuse cached per-candidate neighbor lists
// across φ and k (subsumption). -coalesce (default on) collapses
// concurrent identical queries onto one computation.
// Startup cost: -phl-index and -gtree-index point at files written by
// fannr-index so the server loads instead of rebuilding; each needs its
// index listed in -engines. -mmap auto or on (the same thing) memory-maps
// the index files read-only for near-instant start independent of index
// size; -mmap off reads them onto the heap. A file of any other format
// version fails at startup with a rebuild hint.
// File-backed indexes are live: SIGHUP or POST /admin/reload atomically
// swaps in a freshly loaded generation — in-flight requests finish on
// the generation they pinned, a failed load (half-written file, torn
// rebuild) retries with backoff and never evicts the serving index.
// Memory faults on a mapped index (file truncated or rotted under the
// map) cost one request (503 "index_fault"), quarantine the index
// (served via the -fallback ladder, stamped "degraded"), and show on
// /readyz until a reload restores it.
// Errors carry a stable JSON shape {"error":..., "code":...}; see
// internal/server for the taxonomy. On SIGINT/SIGTERM the server flips
// /healthz and /readyz to 503, stops accepting connections, and drains
// in-flight requests for up to -drain-timeout before exiting.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	"fannr"
	"fannr/internal/binio"
	"fannr/internal/core"
	"fannr/internal/resil"
	"fannr/internal/server"
)

// config carries the flag values into run.
type config struct {
	dataset          string
	scale            float64
	addr             string
	engines          string
	phlIndex         string
	gtreeIndex       string
	mmapMode         string
	queryTimeout     time.Duration
	drainTimeout     time.Duration
	maxInFlight      int
	queueDepth       int
	breakerThreshold int
	breakerCooldown  time.Duration
	fallback         string
	pprof            bool
	logRequests      bool
	cacheEntries     int
	coalesce         bool
}

// newFlags registers the command line on a FlagSet of its own, so the
// flag surface is one function a test can read.
func newFlags(cfg *config) *flag.FlagSet {
	fs := flag.NewFlagSet("fannr-server", flag.ExitOnError)
	fs.StringVar(&cfg.dataset, "dataset", "NW", "Table III dataset name (synthetic)")
	fs.Float64Var(&cfg.scale, "scale", 1.0/64, "dataset scale")
	fs.StringVar(&cfg.addr, "addr", ":8080", "listen address")
	fs.StringVar(&cfg.engines, "engines", "PHL", "indexes to serve: comma-separated from PHL,GTree (INE and A* need none); every engine they support is served")
	fs.StringVar(&cfg.phlIndex, "phl-index", "", "load the hub labels from this fannr-index file instead of building at startup")
	fs.StringVar(&cfg.gtreeIndex, "gtree-index", "", "load the G-tree from this fannr-index file instead of building at startup")
	fs.StringVar(&cfg.mmapMode, "mmap", "auto", "zero-copy index loading: auto or on (mmap the index files), off (heap-read them)")
	fs.DurationVar(&cfg.queryTimeout, "query-timeout", 10*time.Second, "per-request compute budget for /fann (0 = unlimited)")
	fs.DurationVar(&cfg.drainTimeout, "drain-timeout", 15*time.Second, "graceful-shutdown drain budget after SIGINT/SIGTERM")
	fs.IntVar(&cfg.maxInFlight, "max-inflight", 0, "per-engine cap on concurrent queries (0 = unbounded)")
	fs.IntVar(&cfg.queueDepth, "queue-depth", 0, "queued queries allowed per engine once the cap is reached; beyond it requests shed with 503")
	fs.IntVar(&cfg.breakerThreshold, "breaker-threshold", 0, "consecutive engine failures that open its circuit breaker (0 = disabled)")
	fs.DurationVar(&cfg.breakerCooldown, "breaker-cooldown", resil.DefaultCooldown, "open-breaker cooldown before a half-open probe (0 = the default)")
	fs.StringVar(&cfg.fallback, "fallback", "", `breaker fallback ladder, e.g. "PHL=INE,GTree=INE": when the left engine's breaker is open, serve from the right one (degraded)`)
	fs.BoolVar(&cfg.pprof, "pprof", false, "mount net/http/pprof under /debug/pprof/")
	fs.BoolVar(&cfg.logRequests, "log", false, "emit one structured JSON log line per /fann request to stderr")
	fs.IntVar(&cfg.cacheEntries, "cache-entries", 4096, "semantic query-cache capacity in entries (0 = disabled)")
	fs.BoolVar(&cfg.coalesce, "coalesce", true, "collapse concurrent identical /fann queries onto one computation")
	return fs
}

func main() {
	var cfg config
	newFlags(&cfg).Parse(os.Args[1:])
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "fannr-server:", err)
		os.Exit(1)
	}
}

// parseFallback turns "A=B,C=D" into a ladder map.
func parseFallback(s string) (map[string]string, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	ladder := make(map[string]string)
	for _, pair := range strings.Split(s, ",") {
		from, to, ok := strings.Cut(strings.TrimSpace(pair), "=")
		from, to = strings.TrimSpace(from), strings.TrimSpace(to)
		if !ok || from == "" || to == "" {
			return nil, fmt.Errorf("malformed -fallback entry %q (want FROM=TO)", pair)
		}
		if _, dup := ladder[from]; dup {
			return nil, fmt.Errorf("duplicate -fallback source %q", from)
		}
		ladder[from] = to
	}
	return ladder, nil
}

// mmapOptions maps the -mmap mode onto load options.
func mmapOptions(mode string) (fannr.LoadOptions, error) {
	switch mode {
	case "auto", "on":
		return fannr.LoadOptions{Mmap: true}, nil
	case "off":
		return fannr.LoadOptions{Mmap: false}, nil
	default:
		return fannr.LoadOptions{}, fmt.Errorf("-mmap must be auto, on, or off (got %q)", mode)
	}
}

// indexFiles maps each index -engines lists to the file its flag names
// ("" = build at startup). A file whose index -engines does not list is
// an error, not a silently unused flag.
func indexFiles(cfg config, kinds []core.Index) (map[core.Index]string, error) {
	files := make(map[core.Index]string)
	for _, f := range []struct {
		x            core.Index
		flag, engine string
		path         string
	}{
		{core.PHLIndex, "phl-index", "PHL", cfg.phlIndex},
		{core.GTreeIndex, "gtree-index", "GTree", cfg.gtreeIndex},
	} {
		if f.path != "" && !slices.Contains(kinds, f.x) {
			return nil, fmt.Errorf("-%s %s is set, but -engines %q does not list %s", f.flag, f.path, cfg.engines, f.engine)
		}
		files[f.x] = f.path
	}
	return files, nil
}

// serverOptions is the flags → options step.
func serverOptions(cfg config) server.Options {
	opts := server.Options{
		QueryTimeout:     cfg.queryTimeout,
		MaxInFlight:      cfg.maxInFlight,
		QueueDepth:       cfg.queueDepth,
		BreakerThreshold: cfg.breakerThreshold,
		BreakerCooldown:  cfg.breakerCooldown,
		Pprof:            cfg.pprof,
		CacheEntries:     cfg.cacheEntries,
		Coalesce:         cfg.coalesce,
	}
	if cfg.logRequests {
		opts.Logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}
	return opts
}

// addFileIndex registers the index file at path as a hot-swappable
// source serving every engine that searches index x. Each reload maps a
// fresh generation; the serving one is never evicted by a failed load.
func addFileIndex(srv *server.Server, g *fannr.Graph, x core.Index, path string, loadOpts fannr.LoadOptions) error {
	src := server.IndexSource{Path: path}
	var load func() (server.ReloadableIndex, error)
	switch x {
	case core.PHLIndex:
		src.Name = "phl"
		src.Indexes = func(ix server.ReloadableIndex) core.Indexes { return core.Indexes{PHL: ix.(*fannr.PHLIndex)} }
		load = func() (server.ReloadableIndex, error) {
			ix, err := fannr.LoadPHL(path, loadOpts)
			if err != nil {
				return nil, err
			}
			fmt.Printf("hub labels: %d entries, %.1f per node\n", ix.Entries(), ix.AvgLabelSize())
			return ix, nil
		}
	case core.GTreeIndex:
		src.Name = "gtree"
		src.Indexes = func(ix server.ReloadableIndex) core.Indexes { return core.Indexes{GTree: ix.(*fannr.GTree)} }
		load = func() (server.ReloadableIndex, error) { return fannr.LoadGTree(path, g, loadOpts) }
	}
	src.Load = func() (server.ReloadableIndex, error) {
		ix, err := load()
		if err != nil {
			return nil, fmt.Errorf("loading %s index %s: %w", x, path, err)
		}
		return ix, nil
	}
	if err := srv.AddReloadable(src); err != nil {
		return err
	}
	logProvenance(x.String()+" index", path)
	return nil
}

// logProvenance prints what was actually loaded: path, size, format,
// mtime — so a reload that silently served a stale file is diagnosable
// from the startup log alone.
func logProvenance(what, path string) {
	p, err := binio.FileProvenance(path)
	if err != nil {
		fmt.Printf("loaded %s from %s\n", what, path)
		return
	}
	fmt.Printf("loaded %s from %s\n", what, p)
}

func run(cfg config) error {
	ladder, err := parseFallback(cfg.fallback)
	if err != nil {
		return err
	}
	loadOpts, err := mmapOptions(cfg.mmapMode)
	if err != nil {
		return err
	}
	kinds, err := core.ParseIndexes(cfg.engines)
	if err != nil {
		return fmt.Errorf("-engines: %w", err)
	}
	files, err := indexFiles(cfg, kinds)
	if err != nil {
		return err
	}
	g, err := fannr.LoadDataset(cfg.dataset, cfg.scale)
	if err != nil {
		return err
	}
	fmt.Printf("network: %s |V|=%d |E|=%d\n", g.Name(), g.NumNodes(), g.NumEdges())

	// File-backed indexes register as reloadable sources after server.New,
	// so SIGHUP / POST /admin/reload can hot-swap them; the rest are built.
	var build []core.Index
	for _, x := range kinds {
		if files[x] == "" {
			build = append(build, x)
		}
	}
	opts := serverOptions(cfg)
	if opts.Indexes, err = server.BuildIndexes(g, build); err != nil {
		return err
	}
	srv, err := server.New(g, opts)
	if err != nil {
		return err
	}
	defer srv.CloseIndexes()
	for _, x := range kinds {
		if path := files[x]; path != "" {
			if err := addFileIndex(srv, g, x, path, loadOpts); err != nil {
				return err
			}
		}
	}
	// The ladder is validated after every engine is registered so it may
	// reference the engines of file-backed indexes.
	if err := srv.SetFallback(ladder); err != nil {
		return fmt.Errorf("-fallback: %w (registered engines: %s)", err, strings.Join(srv.Engines(), ", "))
	}

	// SIGHUP hot-swaps every file-backed index (same as POST /admin/reload):
	// in-flight requests finish on the generation they pinned, the old
	// mapping unmaps when the last of them releases.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)
	go func() {
		for range hup {
			fmt.Println("SIGHUP: reloading indexes")
			for name, rerr := range srv.Reload(context.Background()) {
				if rerr != nil {
					fmt.Fprintf(os.Stderr, "fannr-server: reload %s: %v\n", name, rerr)
				} else {
					fmt.Printf("reloaded %s\n", name)
				}
			}
		}
	}()
	// Draining flips /healthz + /readyz to 503 so balancers stop routing here.
	return server.ListenAndDrain(cfg.addr, srv.Handler(), cfg.drainTimeout,
		fmt.Sprintf("query timeout %v", cfg.queryTimeout), srv.BeginDrain)
}
