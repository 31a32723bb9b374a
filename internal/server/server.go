// Package server exposes FANN_R querying over HTTP — the "location-based
// services" deployment the paper's introduction motivates. One server
// holds a road network with its indexes; clients post query/data point
// sets and get the optimal site with its flexible subset back as JSON.
//
// The request path is fully concurrent. Heavy shared state (graph, hub
// labels, G-tree) is immutable and built once at startup; the stateful
// g_φ engines come from per-name core.EnginePool free-lists, so each
// request checks out an exclusive engine instead of serializing behind a
// process-wide lock. Every pool lives in a generation of the source that
// serves its engine, and every request pins that generation. Engine
// registration freezes the first time Handler is called, after which the
// registry is never written and is read without locking.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"fannr/internal/core"
	"fannr/internal/graph"
	"fannr/internal/lifecycle"
	"fannr/internal/obs"
	"fannr/internal/qcache"
	"fannr/internal/resil"
	"fannr/internal/sp"
	"fannr/internal/wire"
)

// Options configures the server.
type Options struct {
	// Indexes are the built indexes to serve every catalogue engine over
	// (core.Catalogue); INE and A* are always served, IER-A* on a graph
	// with coordinates. Each is a generation the server never reloads or
	// closes. File-backed indexes register with AddReloadable instead.
	Indexes core.Indexes
	// QueryTimeout bounds how long one /fann request may compute (0 = no
	// limit). Each request derives a deadline context that the query's
	// Cancel hook polls, so a slow search aborts with 504 instead of
	// pinning an engine; client disconnects abort the same way regardless
	// of the timeout.
	QueryTimeout time.Duration
	// MaxInFlight caps how many engines of each kind may be checked out
	// at once (0 = unbounded, the legacy shape). At the cap requests wait
	// in a bounded queue up to their deadline; beyond QueueDepth waiters
	// they are shed immediately with 503 "overloaded" and a Retry-After
	// hint, so a burst degrades into fast rejections instead of an
	// unbounded pile of O(|V|) engine allocations.
	MaxInFlight int
	// QueueDepth is how many requests may wait per pool once MaxInFlight
	// is reached (only meaningful with MaxInFlight > 0).
	QueueDepth int
	// BreakerThreshold opens an engine's circuit breaker after that many
	// consecutive failures (panics or internal errors); 0 disables
	// breaking. While open, requests for that engine follow the Fallback
	// ladder and /readyz reports 503.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker rejects before
	// admitting a half-open probe (0 = resil.DefaultCooldown).
	BreakerCooldown time.Duration
	// Fallback maps an engine name to the next engine to serve from when
	// its breaker is open (e.g. "PHL" -> "INE"). Chains are followed
	// transitively; answers served off-ladder are stamped
	// "degraded": true with the engine that actually answered.
	Fallback map[string]string
	// Metrics is the registry /metrics exposes (nil = a fresh private
	// one). Inject a registry to scrape several servers together or to
	// read gauges in tests.
	Metrics *obs.Registry
	// Pprof mounts net/http/pprof under /debug/pprof/ when set. Off by
	// default: the profiling surface is for operators, not the open
	// internet.
	Pprof bool
	// Logger receives one structured record per /fann request (request
	// id, engine, outcome, stage timings). nil disables them — the
	// default logger reports every level off, so no record is even built.
	Logger *slog.Logger
	// CacheEntries enables the result cache (internal/qcache) with room
	// for this many answers; 0 disables caching entirely. The cache
	// sits between admission and engine compute: shed, breaker and
	// degraded semantics are unchanged, and half-open probes always
	// bypass it so a cache hit can never fake an engine recovery. Entries
	// never expire: the indexes are immutable, and a reload invalidates
	// what was computed on the old generation through the engine@generation
	// key.
	CacheEntries int
	// Coalesce dedups concurrent identical /fann queries: one engine
	// checkout computes, the rest share its outcome. Per-request errors
	// (cancellation, shed) are never shared — a waiting follower is
	// promoted and recomputes.
	Coalesce bool
}

// slowLogEntries sizes the always-on slow-query log served at
// /debug/slow: the N slowest requests plus the N most recent
// erroring/degraded requests are retained with their full traces. The
// capture fast path is one atomic compare for requests below the current
// slowness floor.
const slowLogEntries = 64

// Server answers FANN_R queries over HTTP.
type Server struct {
	g *graph.Graph
	// mu guards the registry during registration; once frozen (first
	// Handler call) it is immutable and the request path reads it
	// lock-free. engines maps every engine name to the source whose
	// generations hold its pool; indexes maps each index name — built or
	// file-backed — to its source.
	mu      sync.Mutex
	frozen  bool
	engines map[string]*source
	indexes map[string]*source
	// breakers parallels engines: one consecutive-failure breaker per
	// engine kind, fed by panics and internal errors on that engine.
	breakers map[string]*resil.Breaker
	fallback map[string]string
	// dist pools the O(|V|) Dijkstra state for /dist requests; distGate
	// bounds how many may be in use at once with the same limits as the
	// engine pools, so a /dist burst sheds instead of allocating without
	// bound.
	dist             sync.Pool
	distGate         *core.Gate
	limits           core.PoolLimits
	breakerThreshold int
	breakerCooldown  time.Duration
	queryTimeout     time.Duration
	started          time.Time
	// draining flips once graceful shutdown begins; /health, /healthz
	// and /readyz answer 503 from then on so load balancers stop routing
	// to a dying server.
	draining atomic.Bool
	// metrics is built once, when Handler freezes registration (the
	// per-engine handle sets need the final pools map); reg and logger
	// are fixed at New.
	metrics *serverMetrics
	reg     *obs.Registry
	logger  *slog.Logger
	pprof   bool
	// qc/flight are the acceleration layers, each independently optional
	// (nil = off). Both are keyed by canonical query fingerprints, so
	// permuted-but-equal P/Q share entries and flights.
	qc     *qcache.Cache
	flight *qcache.Flight
	// tier is the server's configuration of the normalise step: engine
	// "INE" by default, the registered engines, and the registry of id
	// lists requests repeat — a P layer, a Q asked again — so Validate
	// sorts each once, and an "ier" request finds the R-tree over its P
	// already packed (core/sets.go). The registry is always on: its bounds
	// are core's constants and a list nobody repeats stores nothing.
	tier wire.Tier
	// ranges registers every live file-backed index mapping so the fault
	// guard can attribute SIGBUS page-ins to the index that owns the page.
	ranges *lifecycle.Ranges
	// slow is the always-on slow-query log behind /debug/slow: full
	// traces of the N slowest requests plus a ring of recent
	// erroring/degraded ones.
	slow *obs.SlowLog
}

// discardLogs is the handler behind a nil Options.Logger: it reports
// every level disabled, so the request path builds no record for it.
// (slog.DiscardHandler is newer than this module's go line.)
type discardLogs struct{}

func (discardLogs) Enabled(context.Context, slog.Level) bool  { return false }
func (discardLogs) Handle(context.Context, slog.Record) error { return nil }
func (d discardLogs) WithAttrs([]slog.Attr) slog.Handler      { return d }
func (d discardLogs) WithGroup(string) slog.Handler           { return d }

// labelCounted is implemented by hub-label indexes (phl.Index). The
// count depends only on the graph and the hub order the file was built
// under, so /meta's label_entries tells two builds of one network apart
// where byte sizes would need a diff.
type labelCounted interface{ Entries() int64 }

// New builds a server over g.
func New(g *graph.Graph, opts Options) (*Server, error) {
	s := &Server{
		g:                g,
		engines:          map[string]*source{},
		indexes:          map[string]*source{},
		breakers:         map[string]*resil.Breaker{},
		fallback:         map[string]string{},
		limits:           core.PoolLimits{MaxInFlight: opts.MaxInFlight, QueueDepth: opts.QueueDepth},
		breakerThreshold: opts.BreakerThreshold,
		breakerCooldown:  opts.BreakerCooldown,
		queryTimeout:     opts.QueryTimeout,
		started:          time.Now(),
		reg:              opts.Metrics,
		logger:           opts.Logger,
		pprof:            opts.Pprof,
		ranges:           lifecycle.NewRanges(),
		slow:             obs.NewSlowLog(slowLogEntries),
	}
	s.tier = wire.Tier{Graph: g, Sets: core.NewSetRegistry(), DefaultEngine: wire.DefaultEngine, HasEngine: s.hasEngine}
	if s.reg == nil {
		s.reg = obs.NewRegistry()
	}
	if s.logger == nil {
		s.logger = slog.New(discardLogs{})
	}
	for from, to := range opts.Fallback {
		s.fallback[from] = to
	}
	s.dist.New = func() any { return sp.NewDijkstra(g) }
	s.distGate = core.NewGate("dist", s.limits)
	s.qc = qcache.New(qcache.Config{MaxEntries: opts.CacheEntries})
	if opts.Coalesce {
		// Invalid-query and no-result outcomes are properties of the query
		// and safe to share; everything else is per-caller.
		s.flight = qcache.NewFlight(func(err error) bool {
			return errors.Is(err, core.ErrInvalid) || errors.Is(err, core.ErrNoResult)
		})
	}
	// The graph, for the engines that search no index, and each built
	// index are sources whose one generation is never reloaded.
	err := s.addFixed("", nil, s.mint(core.Indexes{}))
	if ix := opts.Indexes.PHL; ix != nil && err == nil {
		sized, _ := ix.(ReloadableIndex) // an oracle that is not reports no size
		err = s.addFixed("phl", sized, s.mint(core.Indexes{PHL: ix}))
	}
	if ix := opts.Indexes.GTree; ix != nil && err == nil {
		err = s.addFixed("gtree", ix, s.mint(core.Indexes{GTree: ix}))
	}
	if err != nil {
		return nil, err
	}
	return s, nil
}

// newPool builds one engine pool under the server's admission limits.
// With admission enabled the free list holds MaxInFlight engines, so
// every released engine is retained and the factory builds at most
// MaxInFlight engines total — the invariant the overload hammer test
// pins; without it the free list is GOMAXPROCS long.
func (s *Server) newPool(name string, factory core.EngineFactory) *core.EnginePool {
	return core.NewBoundedEnginePool(name, s.limits.MaxInFlight, s.limits, factory)
}

// newBreaker builds one engine's circuit breaker from the server
// options (disabled when BreakerThreshold is 0).
func (s *Server) newBreaker() *resil.Breaker {
	return resil.NewBreaker(s.breakerThreshold, s.breakerCooldown)
}

// AddEngine registers an additional named engine, a source of its own
// whose one generation is never reloaded (tests put fakes in this way).
// The factory is invoked once per pooled engine and must be safe to call
// from any goroutine. Registration is rejected once Handler has been
// called: the registry must never be mutated while requests are in
// flight.
func (s *Server) AddEngine(name string, factory core.EngineFactory) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.frozen {
		return fmt.Errorf("server: AddEngine(%q) after Handler — engine registration is frozen once serving starts", name)
	}
	if name == "" || factory == nil {
		return errors.New("server: AddEngine needs a name and a factory")
	}
	return s.addFixed("", nil, map[string]*core.EnginePool{name: s.newPool(name, factory)})
}

// Engines lists the registered engine names, sorted. Callers wiring a
// fallback ladder can validate it against this set before serving.
func (s *Server) Engines() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.engines))
	for name := range s.engines {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// SetFallback replaces the fallback ladder. Every edge must point
// between registered engines; like AddEngine it is rejected once
// Handler has frozen the server.
func (s *Server) SetFallback(ladder map[string]string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.frozen {
		return errors.New("server: SetFallback after Handler — configuration is frozen once serving starts")
	}
	for from, to := range ladder {
		if !s.hasEngine(from) {
			return fmt.Errorf("server: fallback source %q is not a registered engine", from)
		}
		if !s.hasEngine(to) {
			return fmt.Errorf("server: fallback target %q is not a registered engine", to)
		}
	}
	s.fallback = map[string]string{}
	for from, to := range ladder {
		s.fallback[from] = to
	}
	return nil
}

// BeginDrain marks the server as draining: /health, /healthz and
// /readyz answer 503 from now on, so load balancers route new traffic
// elsewhere while in-flight requests finish. Call it when graceful
// shutdown starts; it is idempotent.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// ListenAndDrain serves h on addr until SIGINT or SIGTERM, then calls
// onDrain (if set), stops accepting connections and waits up to drain
// for in-flight requests before returning. A second signal during the
// drain kills the process. banner goes into the start-up line.
func ListenAndDrain(addr string, h http.Handler, drain time.Duration, banner string, onDrain func()) error {
	httpSrv := &http.Server{Addr: addr, Handler: h}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() {
		fmt.Printf("listening on %s (%s)\n", addr, banner)
		errc <- httpSrv.ListenAndServe()
	}()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop()
	if onDrain != nil {
		onDrain()
	}
	fmt.Printf("shutting down: draining in-flight requests (up to %v)\n", drain)
	drainCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		httpSrv.Close()
		return fmt.Errorf("graceful shutdown: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Println("bye")
	return nil
}

// Handler returns the HTTP routes and freezes engine registration. Every
// route runs behind panic recovery: a panicking handler answers 500 with
// the standard error shape instead of tearing the connection down (the
// engine a /fann handler had checked out is dropped, never returned to
// its pool — see handleFANN).
func (s *Server) Handler() http.Handler {
	s.mu.Lock()
	s.frozen = true
	if s.metrics == nil {
		s.metrics = newServerMetrics(s, s.reg)
	}
	s.mu.Unlock()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /health", s.handleHealthz) // legacy alias of /healthz
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /meta", s.handleMeta)
	mux.HandleFunc("POST /fann", s.handleFANN)
	mux.HandleFunc("POST /dist", s.handleDist)
	mux.HandleFunc("POST /admin/reload", s.handleReload)
	mux.Handle("GET /metrics", s.reg.Handler())
	mux.Handle("GET /debug/slow", s.slow.Handler())
	if s.pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	// instrument sits OUTSIDE panic recovery so a recovered panic's 500
	// still lands in the request series.
	return s.instrument(wire.Recover(mux))
}

// ErrorResponse is the stable JSON error shape every non-2xx response
// carries, the same on all three tiers: Code is the row of the one error
// table (wire.Classify) and maps 1:1 to the HTTP status.
type ErrorResponse = wire.ErrorResponse

// handleHealthz is liveness (also served as the legacy /health): 200
// while the process should keep receiving traffic, 503 once graceful
// drain begins so load balancers stop routing to a dying server.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	status, state := http.StatusOK, "ok"
	if s.draining.Load() {
		status, state = http.StatusServiceUnavailable, "draining"
	}
	wire.WriteJSON(w, status, map[string]any{"status": state, "uptime": time.Since(s.started).String()})
}

// handleReadyz is readiness: 503 while draining, while any engine's
// breaker is open, or while any file-backed index is quarantined (the
// server answers, but degraded), naming the broken pools and evicted
// indexes so operators see exactly what tripped.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	open := map[string]string{}
	for name, b := range s.breakers {
		if st := b.State(); st != resil.Closed {
			open[name] = st.String()
		}
	}
	quarantined := map[string]string{}
	for name, r := range s.indexes {
		if st := r.holder.State(); !st.Live {
			reason := st.Reason
			if reason == "" {
				reason = "no generation loaded"
			}
			quarantined[name] = reason
		}
	}
	cache := map[string]any{"enabled": s.qc != nil}
	if cm := s.qc.Metrics(); s.qc != nil {
		cache["entries"] = cm.Entries
		cache["hit_rate"] = cacheHitRate(cm)
	}
	switch {
	case s.draining.Load():
		wire.WriteJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status": "draining", "breakers": open, "quarantined": quarantined, "cache": cache,
		})
	case len(open) > 0 || len(quarantined) > 0:
		wire.WriteJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status": "degraded", "breakers": open, "quarantined": quarantined, "cache": cache,
		})
	default:
		wire.WriteJSON(w, http.StatusOK, map[string]any{"status": "ready", "cache": cache})
	}
}

// cacheHitRate folds a cache snapshot into the fraction of lookups
// answered from memory; 0 before any lookup.
func cacheHitRate(cm qcache.Metrics) float64 {
	total := cm.HitsExact + cm.MissesExact
	if total == 0 {
		return 0
	}
	return float64(cm.HitsExact) / float64(total)
}

func (s *Server) handleMeta(w http.ResponseWriter, _ *http.Request) {
	// Every gauge below is read back from the metrics registry rather
	// than from the pools directly: /meta and /metrics are two views of
	// one source of truth and must never disagree (pinned by the schema
	// regression test).
	val := func(name string, labels ...obs.Label) int64 {
		v, _ := s.reg.Value(name, labels...)
		return int64(v)
	}
	names := s.Engines()
	poolStats := make(map[string]map[string]any, len(names))
	for _, name := range names {
		el := obs.L("engine", name)
		state, _ := s.reg.Value(mBreakerState, el)
		poolStats[name] = map[string]any{
			"created": val(mPoolCreated, el), "reused": val(mPoolReused, el), "idle": val(mPoolIdle, el),
			"inflight": val(mPoolInflight, el), "queued": val(mPoolQueued, el), "shed": val(mPoolShed, el),
			"breaker": resil.State(state).String(),
		}
	}
	distInflight, distQueued, distShed := val(mDistInflight), val(mDistQueued), val(mDistShed)
	// The cache section is always present so clients can probe capability
	// from the shape alone; the counters mirror the fannr_cache_* series
	// (both read the same qcache snapshot).
	cache := map[string]any{
		"enabled":    s.qc != nil,
		"coalescing": s.flight != nil,
	}
	if cm := s.qc.Metrics(); s.qc != nil {
		cache["entries"] = cm.Entries
		cache["bytes"] = cm.Bytes
		cache["hits"] = cm.HitsExact
		cache["misses"] = cm.MissesExact
		cache["evictions"] = cm.Evictions
		cache["hit_rate"] = cacheHitRate(cm)
	}
	// Index sizes are read back from the gauge like everything else so
	// /meta and /metrics cannot disagree. Each index reports heap and
	// mmap-backed bytes separately (they never overlap) plus their sum;
	// file-backed indexes add lifecycle state and file provenance so
	// operators can tell which artifact generation is actually serving.
	indexes := make(map[string]any, len(s.indexes))
	for name, r := range s.indexes {
		heap := val(mIndexBytes, obs.L("index", name), obs.L("mem", "heap"))
		mapped := val(mIndexBytes, obs.L("index", name), obs.L("mem", "mapped"))
		entry := map[string]any{"heap": heap, "mapped": mapped, "total": heap + mapped}
		if _, _, n := r.footprint(); n > 0 {
			entry["label_entries"] = n
		}
		if r.reloadable() {
			st := r.holder.State()
			entry["generation"], entry["quarantined"] = st.Generation, st.Quarantined
			entry["reloads"], entry["reload_failures"] = st.Reloads, st.ReloadFailures
			entry["faults"], entry["reloadable"] = st.Faults, true
			if st.Reason != "" {
				entry["quarantine_reason"] = st.Reason
			}
			if p := r.prov.Load(); p != nil {
				entry["path"] = p.Path
				entry["file_bytes"] = p.Bytes
				entry["file_mtime"] = p.ModTime.UTC().Format(time.RFC3339)
				if p.Family != "" {
					entry["format"] = fmt.Sprintf("%s v%d", p.Family, p.Version)
				}
			}
		}
		indexes[name] = entry
	}
	sets := s.tier.Sets.Metrics()
	wire.WriteJSON(w, http.StatusOK, map[string]any{
		"dataset": s.g.Name(),
		"nodes":   s.g.NumNodes(),
		"edges":   s.g.NumEdges(),
		"coords":  s.g.HasCoords(),
		"engines": names,
		"pools":   poolStats,
		"indexes": indexes,
		"dist": map[string]any{
			"inflight": distInflight, "queued": distQueued, "shed": distShed,
		},
		"limits":   map[string]int{"max_inflight": s.limits.MaxInFlight, "queue_depth": s.limits.QueueDepth},
		"fallback": s.fallback,
		"draining": s.draining.Load(),
		"cache":    cache,
		"sets":     map[string]any{"entries": sets.Entries, "bytes": sets.Bytes},
	})
}

// DistRequest is the /dist request body.
type DistRequest struct {
	U graph.NodeID `json:"u"`
	V graph.NodeID `json:"v"`
}

func (s *Server) handleDist(w http.ResponseWriter, r *http.Request) {
	var req DistRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxDistBody)).Decode(&req); err != nil {
		wire.WriteError(w, wire.BodyError(err))
		return
	}
	n := graph.NodeID(s.g.NumNodes())
	if req.U < 0 || req.U >= n || req.V < 0 || req.V >= n {
		wire.WriteError(w, fmt.Errorf("%w: node ids outside [0,%d)", core.ErrInvalid, n))
		return
	}
	// /dist draws the same O(|V|) class of scratch as /fann (a pooled
	// Dijkstra per in-flight request), so it sits behind its own
	// admission gate with the engine-pool limits: saturation sheds with
	// 503 + Retry-After instead of growing the sync.Pool without bound.
	if err := s.distGate.Acquire(r.Context()); err != nil {
		wire.WriteError(w, err)
		return
	}
	defer s.distGate.Release()
	d := s.dist.Get().(*sp.Dijkstra)
	dist := d.Dist(req.U, req.V)
	s.dist.Put(d)
	wire.WriteJSON(w, http.StatusOK, map[string]float64{"dist": dist})
}
