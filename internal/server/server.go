// Package server exposes FANN_R querying over HTTP — the "location-based
// services" deployment the paper's introduction motivates. One server
// holds a road network with its indexes; clients post query/data point
// sets and get the optimal site with its flexible subset back as JSON.
//
// The request path is fully concurrent. Heavy shared state (graph, hub
// labels, G-tree, CH upward graph) is immutable and built once at
// startup; the stateful g_φ engines come from per-name core.EnginePool
// free-lists, so each request checks out an exclusive engine instead of
// serializing behind a process-wide lock. Engine registration freezes the
// first time Handler is called, after which the pools map is never
// written and is read without locking.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
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

// Options configures which engines the server offers. INE and A* are
// always available; PHL and CH variants appear when the matching index is
// supplied, and further engines (e.g., G-tree) register via AddEngine.
type Options struct {
	// PHL is a hub-label index (enables "PHL", "IER-PHL"). It must be
	// safe for concurrent readers, as phl.Index is: the per-engine scratch
	// lives in the pooled engines, not the oracle.
	PHL core.Oracle
	// NewCH supplies a fresh contraction-hierarchy querier per engine
	// (enables "CH", "IER-CH"). Queriers carry per-goroutine search
	// scratch, so the server needs a factory rather than a single shared
	// instance; pass ch.Index.NewQuerier (wrapped to return core.Oracle).
	NewCH func() core.Oracle
	// PoolSize bounds each engine free-list — how many idle engines of
	// one kind are retained between requests (0 = GOMAXPROCS). Peak
	// concurrency is not limited; extra engines are built on demand and
	// dropped on return.
	PoolSize int
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
	// admitting a half-open probe (<= 0 defaults to 1s).
	BreakerCooldown time.Duration
	// Fallback maps an engine name to the next engine to serve from when
	// its breaker is open (e.g. "PHL" -> "INE"). Chains are followed
	// transitively; answers served off-ladder are stamped
	// "degraded": true with the engine that actually answered.
	Fallback map[string]string
	// RetryAfter is the hint attached to 503 responses (<= 0 defaults to
	// 1s).
	RetryAfter time.Duration
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
	// CacheEntries enables the query-acceleration cache (internal/qcache)
	// with this many entries shared between final results and per-
	// candidate neighbor lists; 0 disables caching entirely. The cache
	// sits between admission and engine compute: shed, breaker and
	// degraded semantics are unchanged, and half-open probes always
	// bypass it so a cache hit can never fake an engine recovery.
	CacheEntries int
	// CacheTTL expires cache entries (0 = entries live until evicted).
	// The in-process indexes are immutable, so a TTL only matters to
	// operators refreshing the world out-of-band.
	CacheTTL time.Duration
	// Coalesce dedups concurrent identical /fann queries: one engine
	// checkout computes, the rest share its outcome. Per-request errors
	// (cancellation, shed) are never shared — a waiting follower is
	// promoted and recomputes.
	Coalesce bool
	// SlowLogEntries sizes the always-on slow-query log served at
	// /debug/slow: the N slowest requests plus the N most recent
	// erroring/degraded requests are retained with their full traces
	// (0 = 64). The capture fast path is one atomic compare for requests
	// below the current slowness floor.
	SlowLogEntries int
}

// Server answers FANN_R queries over HTTP.
type Server struct {
	g *graph.Graph
	// mu guards pools during registration; once frozen (first Handler
	// call) the map is immutable and the request path reads it lock-free.
	mu     sync.Mutex
	frozen bool
	pools  map[string]*core.EnginePool
	// breakers parallels pools: one consecutive-failure breaker per
	// engine kind, fed by panics and internal errors on that engine.
	breakers map[string]*resil.Breaker
	fallback map[string]string
	// dist pools the O(|V|) Dijkstra state for /dist requests; distGate
	// bounds how many may be in use at once with the same limits as the
	// engine pools, so a /dist burst sheds instead of allocating without
	// bound.
	dist             sync.Pool
	distGate         *core.Gate
	poolSize         int
	limits           core.PoolLimits
	breakerThreshold int
	breakerCooldown  time.Duration
	retryAfter       time.Duration
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
	// sets remembers the id lists requests repeat — a P layer, a Q asked
	// again — so Validate sorts each once, and an "ier" request finds the
	// R-tree over its P already packed (core/sets.go). Always on: its
	// bounds are core's constants and a list nobody repeats stores nothing.
	sets *core.SetRegistry
	// indexSizes records the size of each preprocessing index for the
	// fannr_index_bytes gauge and /meta, split into heap-resident bytes
	// and mmap-backed bytes (zero for heap-loaded or built indexes) so
	// the two are never double-counted. Written only before freeze (New,
	// RegisterIndex, RegisterIndexBytes).
	indexSizes map[string]indexSize
	// reload holds the hot-swappable indexes (AddReloadable) by index
	// name; engineIndex maps each reloadable engine name to its index.
	// Both are frozen with the pools map, so the request path reads them
	// lock-free.
	reload      map[string]*reloadable
	engineIndex map[string]string
	// ranges registers every live index mapping so the fault guard can
	// attribute SIGBUS page-ins to the index that owns the page.
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

// indexSize splits an index's footprint by where the bytes live;
// entries is its label count, for the one kind of index that has one.
type indexSize struct{ heap, mapped, entries int64 }

// memorySized is implemented by indexes that report their resident size
// (phl.Index, gtree.Tree via Stats, ...).
type memorySized interface{ MemoryBytes() int64 }

// mappedSized is additionally implemented by indexes that may be
// mmap-backed (phl.Index); MappedBytes is 0 for heap-loaded instances.
type mappedSized interface{ MappedBytes() int64 }

// labelCounted is implemented by hub-label indexes (phl.Index). The
// count depends only on the graph and the hub order the file was built
// under, so /meta's label_entries tells two builds of one network apart
// where byte sizes would need a diff.
type labelCounted interface{ Entries() int64 }

// New builds a server over g.
func New(g *graph.Graph, opts Options) (*Server, error) {
	s := &Server{
		g:                g,
		pools:            map[string]*core.EnginePool{},
		breakers:         map[string]*resil.Breaker{},
		fallback:         map[string]string{},
		poolSize:         opts.PoolSize,
		limits:           core.PoolLimits{MaxInFlight: opts.MaxInFlight, QueueDepth: opts.QueueDepth},
		breakerThreshold: opts.BreakerThreshold,
		breakerCooldown:  opts.BreakerCooldown,
		retryAfter:       opts.RetryAfter,
		queryTimeout:     opts.QueryTimeout,
		started:          time.Now(),
		reg:              opts.Metrics,
		logger:           opts.Logger,
		pprof:            opts.Pprof,
		indexSizes:       map[string]indexSize{},
		reload:           map[string]*reloadable{},
		engineIndex:      map[string]string{},
		ranges:           lifecycle.NewRanges(),
		sets:             core.NewSetRegistry(),
	}
	slowEntries := opts.SlowLogEntries
	if slowEntries <= 0 {
		slowEntries = 64
	}
	s.slow = obs.NewSlowLog(slowEntries)
	if sized, ok := opts.PHL.(memorySized); ok {
		sz := indexSize{heap: sized.MemoryBytes()}
		if mm, ok := opts.PHL.(mappedSized); ok {
			sz.mapped = mm.MappedBytes()
		}
		if lc, ok := opts.PHL.(labelCounted); ok {
			sz.entries = lc.Entries()
		}
		s.indexSizes["phl"] = sz
	}
	if s.reg == nil {
		s.reg = obs.NewRegistry()
	}
	if s.logger == nil {
		s.logger = slog.New(discardLogs{})
	}
	if s.retryAfter <= 0 {
		s.retryAfter = time.Second
	}
	for from, to := range opts.Fallback {
		s.fallback[from] = to
	}
	s.dist.New = func() any { return sp.NewDijkstra(g) }
	s.distGate = core.NewGate("dist", s.limits)
	s.qc = qcache.New(qcache.Config{MaxEntries: opts.CacheEntries, TTL: opts.CacheTTL})
	if opts.Coalesce {
		// Invalid-query and no-result outcomes are properties of the query
		// and safe to share; everything else is per-caller.
		s.flight = qcache.NewFlight(func(err error) bool {
			return errors.Is(err, core.ErrInvalid) || errors.Is(err, core.ErrNoResult)
		})
	}
	reg := func(name string, factory core.EngineFactory) {
		s.pools[name] = core.NewBoundedEnginePool(name, s.poolCapacity(), s.limits, factory)
		s.breakers[name] = s.newBreaker()
	}
	reg("INE", func() core.GPhi { return core.NewINE(g) })
	reg("A*", func() core.GPhi { return core.NewOracleGPhi("A*", sp.NewAStar(g)) })
	if g.HasCoords() {
		if err := s.addIER("IER-A*", func() core.Oracle { return sp.NewAStar(g) }); err != nil {
			return nil, err
		}
	}
	if opts.PHL != nil {
		reg("PHL", func() core.GPhi { return core.NewOracleGPhi("PHL", opts.PHL) })
		if g.HasCoords() {
			if err := s.addIER("IER-PHL", func() core.Oracle { return opts.PHL }); err != nil {
				return nil, err
			}
		}
	}
	if opts.NewCH != nil {
		reg("CH", func() core.GPhi { return core.NewOracleGPhi("CH", opts.NewCH()) })
		if g.HasCoords() {
			if err := s.addIER("IER-CH", opts.NewCH); err != nil {
				return nil, err
			}
		}
	}
	return s, nil
}

// poolCapacity is the free-list bound for every engine pool. With
// admission enabled it is at least MaxInFlight, so every released engine
// is retained and the factory builds at most MaxInFlight engines total —
// the invariant the overload hammer test pins.
func (s *Server) poolCapacity() int {
	if s.limits.MaxInFlight > s.poolSize {
		return s.limits.MaxInFlight
	}
	return s.poolSize
}

// newBreaker builds one engine's circuit breaker from the server
// options (disabled when BreakerThreshold is 0).
func (s *Server) newBreaker() *resil.Breaker {
	return resil.NewBreaker(s.breakerThreshold, s.breakerCooldown)
}

// addIER registers an IER engine pool after verifying construction works
// (surfacing e.g. missing coordinates at startup instead of per request).
func (s *Server) addIER(name string, oracle func() core.Oracle) error {
	if _, err := core.NewIERGPhi(name, s.g, oracle()); err != nil {
		return err
	}
	s.pools[name] = core.NewBoundedEnginePool(name, s.poolCapacity(), s.limits, func() core.GPhi {
		gp, err := core.NewIERGPhi(name, s.g, oracle())
		if err != nil {
			panic(err) // verified above; cannot fail
		}
		return gp
	})
	s.breakers[name] = s.newBreaker()
	return nil
}

// AddEngine registers an additional named engine (e.g., a G-tree engine
// built by the caller). The factory is invoked once per pooled engine and
// must be safe to call from any goroutine. Registration is rejected once
// Handler has been called: the pools map must never be mutated while
// requests are in flight.
func (s *Server) AddEngine(name string, factory core.EngineFactory) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.frozen {
		return fmt.Errorf("server: AddEngine(%q) after Handler — engine registration is frozen once serving starts", name)
	}
	if name == "" || factory == nil {
		return errors.New("server: AddEngine needs a name and a factory")
	}
	if _, dup := s.pools[name]; dup {
		return fmt.Errorf("server: engine %q already registered", name)
	}
	if _, dup := s.engineIndex[name]; dup {
		return fmt.Errorf("server: engine %q already registered", name)
	}
	s.pools[name] = core.NewBoundedEnginePool(name, s.poolCapacity(), s.limits, factory)
	s.breakers[name] = s.newBreaker()
	return nil
}

// RegisterIndex records the size of a named preprocessing index (e.g.
// "gtree" for a G-tree registered through AddEngine) so it appears in
// the fannr_index_bytes gauge and /meta. heapBytes is the heap-resident
// footprint; mappedBytes is the mmap-backed footprint (0 unless the
// index was zero-copy loaded). Like AddEngine it is rejected once
// Handler has frozen the server.
func (s *Server) RegisterIndex(name string, heapBytes, mappedBytes int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.frozen {
		return fmt.Errorf("server: RegisterIndex(%q) after Handler — configuration is frozen once serving starts", name)
	}
	if name == "" {
		return errors.New("server: RegisterIndex needs a name")
	}
	s.indexSizes[name] = indexSize{heap: heapBytes, mapped: mappedBytes}
	return nil
}

// RegisterIndexBytes records a purely heap-resident index size. It is
// the pre-mmap spelling of RegisterIndex(name, bytes, 0), kept for
// callers that never map.
func (s *Server) RegisterIndexBytes(name string, bytes int64) error {
	return s.RegisterIndex(name, bytes, 0)
}

// Engines lists the registered engine names — static pools and
// reloadable engines — sorted. Callers wiring a fallback ladder can
// validate it against this set before serving.
func (s *Server) Engines() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.pools)+len(s.engineIndex))
	for name := range s.pools {
		names = append(names, name)
	}
	for name := range s.engineIndex {
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
	return s.instrument(recoverPanics(mux))
}

// recoverPanics converts handler panics into 500 responses. It rethrows
// http.ErrAbortHandler (the net/http idiom for deliberately dropping a
// connection) so streaming aborts keep working.
func recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			rec := recover()
			if rec == nil {
				return
			}
			if rec == http.ErrAbortHandler {
				panic(rec)
			}
			fail(w, fmt.Errorf("internal error: %v", rec))
		}()
		next.ServeHTTP(w, r)
	})
}

// ErrorResponse is the stable JSON error shape every non-2xx response
// carries. Code is machine-readable and maps 1:1 to the HTTP status:
// "invalid" (400), "not_found" (404), "too_large" (413),
// "overloaded" (503, with a Retry-After header), "timeout" (504),
// "internal" (500).
type ErrorResponse struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

// errStatus classifies an error into its HTTP status and stable code.
// The taxonomy: malformed or semantically invalid requests are the
// client's fault (400/413); a well-formed query with no answer is 404; a
// request shed by admission control or an open breaker is 503, the one
// retryable server-fault class — a quarantined or mid-swap index adds
// the sibling codes "index_fault" (the request that hit the rotted page)
// and "overloaded" (requests racing the quarantine); a query that
// outlived its deadline or its client is 504; everything unexpected —
// including handler panics — is a 500, never blamed on the client.
func errStatus(err error) (int, string) {
	var tooBig *http.MaxBytesError
	var ifault *lifecycle.IndexFault
	switch {
	case errors.As(err, &tooBig):
		return http.StatusRequestEntityTooLarge, "too_large"
	case errors.As(err, &ifault):
		return http.StatusServiceUnavailable, "index_fault"
	case errors.Is(err, lifecycle.ErrUnavailable):
		return http.StatusServiceUnavailable, "overloaded"
	case errors.Is(err, core.ErrInvalid):
		return http.StatusBadRequest, "invalid"
	case errors.Is(err, core.ErrNoResult):
		return http.StatusNotFound, "not_found"
	case errors.Is(err, core.ErrSaturated):
		return http.StatusServiceUnavailable, "overloaded"
	case errors.Is(err, core.ErrCanceled),
		errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout, "timeout"
	default:
		return http.StatusInternalServerError, "internal"
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// fail classifies err and writes the error response.
func fail(w http.ResponseWriter, err error) {
	status, code := errStatus(err)
	writeJSON(w, status, ErrorResponse{Error: err.Error(), Code: code})
}

// retryAfterHeader attaches the server's Retry-After hint to a 503.
func (s *Server) retryAfterHeader(w http.ResponseWriter) {
	secs := int(s.retryAfter.Round(time.Second) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
}

// shed answers 503 "overloaded" with the server's Retry-After hint — the
// load-shedding response for saturated pools and fully-open ladders.
func (s *Server) shed(w http.ResponseWriter, err error) {
	s.retryAfterHeader(w)
	writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{Error: err.Error(), Code: "overloaded"})
}

// invalidf builds a client-fault error (maps to 400).
func invalidf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", core.ErrInvalid, fmt.Sprintf(format, args...))
}

// handleHealthz is liveness (also served as the legacy /health): 200
// while the process should keep receiving traffic, 503 once graceful
// drain begins so load balancers stop routing to a dying server.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status": "draining",
			"uptime": time.Since(s.started).String(),
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status": "ok",
		"uptime": time.Since(s.started).String(),
	})
}

// handleReadyz is readiness: 503 while draining, while any engine's
// breaker is open, or while any reloadable index is quarantined (the
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
	for name, r := range s.reload {
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
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status": "draining", "breakers": open, "quarantined": quarantined, "cache": cache,
		})
	case len(open) > 0 || len(quarantined) > 0:
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status": "degraded", "breakers": open, "quarantined": quarantined, "cache": cache,
		})
	default:
		writeJSON(w, http.StatusOK, map[string]any{"status": "ready", "cache": cache})
	}
}

// cacheHitRate folds a cache snapshot into the fraction of lookups (both
// layers) answered from memory; 0 before any lookup.
func cacheHitRate(cm qcache.Metrics) float64 {
	hits := cm.HitsExact + cm.HitsSubsume
	total := hits + cm.MissesExact + cm.MissesList
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
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
			"breaker": breakerStateName(state),
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
		cache["hits"] = cm.HitsExact + cm.HitsSubsume
		cache["misses"] = cm.MissesExact + cm.MissesList
		cache["evictions"] = cm.Evictions
		cache["list_skips"] = cm.ListSkips
		cache["hit_rate"] = cacheHitRate(cm)
	}
	// Index sizes are read back from the gauge like everything else so
	// /meta and /metrics cannot disagree. Each index reports heap and
	// mmap-backed bytes separately (they never overlap) plus their sum;
	// reloadable indexes add lifecycle state and file provenance so
	// operators can tell which artifact generation is actually serving.
	indexes := make(map[string]any, len(s.indexSizes)+len(s.reload))
	for name, sz := range s.indexSizes {
		heap := val(mIndexBytes, obs.L("index", name), obs.L("mem", "heap"))
		mapped := val(mIndexBytes, obs.L("index", name), obs.L("mem", "mapped"))
		entry := map[string]any{"heap": heap, "mapped": mapped, "total": heap + mapped}
		if sz.entries > 0 {
			entry["label_entries"] = sz.entries
		}
		indexes[name] = entry
	}
	for name, rl := range s.reload {
		heap := val(mIndexBytes, obs.L("index", name), obs.L("mem", "heap"))
		mapped := val(mIndexBytes, obs.L("index", name), obs.L("mem", "mapped"))
		st := rl.holder.State()
		entry := map[string]any{
			"heap": heap, "mapped": mapped, "total": heap + mapped,
			"generation": st.Generation, "quarantined": st.Quarantined,
			"reloads": st.Reloads, "reload_failures": st.ReloadFailures,
			"faults": st.Faults, "reloadable": true,
		}
		if st.Reason != "" {
			entry["quarantine_reason"] = st.Reason
		}
		if n := rl.labelEntries(); n > 0 {
			entry["label_entries"] = n
		}
		if p := rl.prov.Load(); p != nil {
			entry["path"] = p.Path
			entry["file_bytes"] = p.Bytes
			entry["file_mtime"] = p.ModTime.UTC().Format(time.RFC3339)
			if p.Family != "" {
				entry["format"] = fmt.Sprintf("%s v%d", p.Family, p.Version)
			}
		}
		indexes[name] = entry
	}
	sets := s.sets.Metrics()
	writeJSON(w, http.StatusOK, map[string]any{
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

// FANNRequest is the /fann request body (Engine defaults to "INE"): the
// one definition and the one decoder every tier shares.
type FANNRequest = wire.FANNRequest

// FANNAnswer is one result of a /fann call.
type FANNAnswer struct {
	P      graph.NodeID   `json:"p"`
	Dist   float64        `json:"dist"`
	Subset []graph.NodeID `json:"subset"`
}

// FANNResponse is the /fann response body. Engine is the pool that
// actually answered; Degraded is set when that differs from the
// requested engine because its breaker was open and the fallback ladder
// was followed.
type FANNResponse struct {
	Answers  []FANNAnswer `json:"answers"`
	Micros   int64        `json:"micros"`
	Engine   string       `json:"engine"`
	Degraded bool         `json:"degraded,omitempty"`
	// Explain carries the hierarchical trace report when the request
	// asked for it (?explain=1 or X-Fannr-Explain) — the EXPLAIN ANALYZE
	// view of the answer above it.
	Explain *obs.Report `json:"explain,omitempty"`
}

// maxFANNBody bounds the /fann request body (point sets can be large but
// not unbounded); maxDistBody bounds /dist.
const (
	maxFANNBody = 16 << 20
	maxDistBody = 1 << 20
)

func (s *Server) handleFANN(w http.ResponseWriter, r *http.Request) {
	// Per-request trace: decode / admit / compute spans feed the stage
	// timings in the structured log. The deferred record fires on every
	// exit path, so failed requests are logged with their outcome code
	// just like successes.
	tr := obs.NewTrace(requestID(r.Context()))
	explain := r.URL.Query().Get("explain") == "1" || r.Header.Get("X-Fannr-Explain") != ""
	stats := &core.Stats{}
	start := time.Now()
	outcome := "ok"
	served, degraded := "", false
	cacheKind := "" // "exact" | "coalesced" | "" (computed or cache off)
	leaderID := ""  // coalesce leader this request's answer came from
	var req FANNRequest
	var q core.Query
	defer func() {
		elapsed := time.Since(start)
		// The attributes are only built for a logger that will print them.
		if s.logger.Enabled(r.Context(), slog.LevelInfo) {
			s.logger.LogAttrs(r.Context(), slog.LevelInfo, "fann",
				slog.String("request_id", tr.ID),
				slog.String("engine", req.Engine),
				slog.String("served", served),
				slog.Bool("degraded", degraded),
				slog.String("algo", req.Algo),
				slog.Float64("phi", req.Phi),
				slog.Int("np", len(q.P)),
				slog.Int("nq", len(q.Q)),
				slog.Int("k", req.K),
				slog.String("outcome", outcome),
				slog.Duration("duration", elapsed),
				slog.Duration("decode", tr.Dur("decode")),
				slog.Duration("cache_lookup", tr.Dur("cache")),
				slog.Duration("coalesce", tr.Dur("coalesce")),
				slog.Duration("admit", tr.Dur("admit")),
				slog.Duration("pin", tr.Dur("pin")),
				slog.Duration("compute", tr.Dur("compute")),
				slog.Int64("gphi_evals", stats.GPhiEvals),
				slog.Int64("gphi_abandoned", stats.GPhiAbandoned),
				slog.Int64("settled", stats.Settled),
				slog.Int64("heap_pops", stats.HeapPops),
				slog.String("cache", cacheKind),
				slog.String("leader", leaderID),
				slog.Int64("cache_hits", stats.CacheHits),
				slog.Int64("cache_misses", stats.CacheMisses),
			)
		}
		// Feed the slow-query log last, with the finished trace: the N
		// slowest requests and every errored/degraded one keep their full
		// span tree retrievable at /debug/slow?id=<request_id>.
		root := tr.Root()
		root.SetAttr("outcome", outcome)
		root.End()
		s.slow.Record(obs.SlowEntry{
			RequestID: tr.ID,
			Algo:      req.Algo,
			Engine:    served,
			Outcome:   outcome,
			Degraded:  degraded,
			Start:     start,
			DurMicros: elapsed.Microseconds(),
			Trace:     tr.Report(),
		}, outcome != "ok" || degraded)
	}()
	// failq classifies, records the outcome code, and writes the error.
	failq := func(err error) {
		_, outcome = errStatus(err)
		fail(w, err)
	}

	// The decode span covers the whole request-side stage: read, parse,
	// and Validate's canonicalisation, which also yields the fingerprints
	// the result key is built from further down.
	decodeSp := tr.StartSpan("decode")
	if err := wire.ReadFANN(w, r, maxFANNBody, &req); err != nil {
		decodeSp.End()
		failq(decodeErr(err))
		return
	}
	q = core.Query{P: req.P, Q: req.Q, Phi: req.Phi, Stats: stats, Trace: tr, Sets: s.sets}
	switch req.Agg {
	case "", "max":
		q.Agg = core.Max
	case "sum":
		q.Agg = core.Sum
	default:
		decodeSp.End()
		failq(invalidf("unknown aggregate %q", req.Agg))
		return
	}
	if err := q.Validate(s.g); err != nil {
		decodeSp.End()
		failq(err)
		return
	}
	decodeSp.SetAttr("sets", q.PSight().String())
	decodeSp.End()
	if req.K < 1 {
		req.K = 1
	}
	engineName := req.Engine
	if engineName == "" {
		engineName = "INE"
	}
	if !s.hasEngine(engineName) {
		failq(invalidf("unknown engine %q (see /meta)", engineName))
		return
	}

	// The query lifecycle is bounded by the request: the context ends when
	// the client disconnects, and -query-timeout adds a server-side
	// deadline on top — covering the admission queue wait as well as the
	// compute. The Cancel hook polls an atomic the context watcher flips,
	// so every algorithm aborts at its next loop boundary.
	ctx := r.Context()
	if s.queryTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.queryTimeout)
		defer cancel()
	}

	// Walk the breaker/fallback ladder to the engine that will serve.
	var probe, ok bool
	served, degraded, probe, ok = s.routeEngine(engineName)
	if !ok {
		outcome = "overloaded"
		s.shed(w, fmt.Errorf("engine %q unavailable: breaker open and no closed fallback", engineName))
		return
	}
	breaker := s.breakers[served]
	em := s.metrics.engines[served]
	root := tr.Root()
	root.SetAttr("engine", engineName)
	root.SetAttr("served", served)
	gen := s.engineGeneration(served)
	if gen != 0 {
		root.SetAttr("generation", gen)
	}
	if degraded {
		root.SetAttr("degraded", true)
	}

	// Every breaker verdict goes through report, which remembers that one
	// was recorded. A half-open probe MUST report — until it does the
	// breaker admits nobody — but several paths below return without a
	// verdict of their own (shed, queue timeout, canceled dispatch:
	// "timeouts prove nothing"). For a probe those silences would wedge
	// the circuit half-open forever, so the deferred guard converts an
	// unreported probe into a Failure: it re-opens with a fresh cooldown,
	// and a probe that could not finish is indeed no evidence of recovery.
	reported := false
	report := func(healthy bool) {
		reported = true
		if healthy {
			breaker.Success()
		} else {
			breaker.Failure()
		}
	}
	defer func() {
		if probe && !reported {
			breaker.Failure()
		}
	}()

	// Acceleration layers: canonical fingerprints make permuted-but-equal
	// P/Q share cache entries and flights. Half-open probes
	// bypass every layer — a probe exists to exercise the engine, and a
	// cache hit or shared flight would "prove" recovery without touching
	// it (the deferred guard above fails an unreported probe).
	accel := (s.qc != nil || s.flight != nil) && !probe
	var rkey qcache.ResultKey
	if accel {
		algo := req.Algo
		if algo == "" {
			algo = "gd"
		}
		rkey = qcache.ResultKey{Engine: served, Algo: algo, Agg: q.Agg, Phi: q.Phi, K: req.K}
		rkey.P, rkey.Q = q.Fingerprints()
		// Reloadable engines stamp the index generation into the key: a
		// swap naturally invalidates every result computed on the old
		// index, and coalesced flights never pair queries across
		// generations.
		if gen != 0 {
			rkey.Engine = generationKey(served, gen)
		}
	}

	// Exact result hit: answer without an engine checkout. The breaker is
	// not consulted — serving from memory says nothing about the engine.
	if accel {
		cacheSp := tr.StartSpan("cache")
		cacheSp.SetAttr("key_engine", rkey.Engine)
		if cached, ok := s.qc.GetResult(rkey); ok {
			stats.CountCacheHit()
			cacheKind = "exact"
			// The span carries the hit so per-span counts still sum to the
			// request's counter deltas (no algorithm span ran).
			cacheSp.SetAttr("outcome", "exact")
			cacheSp.Count("cache_hits", 1)
			cacheSp.End()
			if degraded {
				em.degraded.Inc()
			}
			resp := FANNResponse{Micros: time.Since(start).Microseconds(), Engine: served, Degraded: degraded}
			for _, a := range cached {
				resp.Answers = append(resp.Answers, FANNAnswer{P: a.P, Dist: a.Dist, Subset: a.Subset})
			}
			if explain {
				resp.Explain = tr.Report()
			}
			writeJSON(w, http.StatusOK, resp)
			return
		}
		cacheSp.SetAttr("outcome", "miss")
		cacheSp.End()
	}

	var computeMicros int64

	// runQuery performs one real engine checkout and evaluation: bounded
	// admission, stats binding, dispatch through the cache wrapper, and
	// result-cache fill. It runs on this goroutine — directly, or as a
	// flight leader on behalf of coalesced followers.
	runQuery := func() (answers []core.Answer, err error) {
		// Arm fault containment first (LIFO: its recover runs last, after
		// engine cleanup and pin release). Everything below may touch a
		// mapped index — engine factories inside Acquire as well as the
		// dispatch itself — and a SIGBUS on a rotted page must become a
		// classified error plus a quarantine, not a dead process.
		defer s.ranges.Guard(s.noteIndexFault)(&err)

		// Bounded admission: wait in the pool's queue up to the deadline;
		// saturation beyond the queue sheds with 503 + Retry-After. For a
		// reloadable engine the checkout pins the index generation — the
		// pin releases last (LIFO), after the engine is back in the
		// generation's pool, and is what keeps the mapping alive while
		// this request computes, no matter how many swaps land meanwhile.
		endAdmit := tr.Start("admit")
		pinSp := tr.StartSpan("pin")
		pool, pin, err := s.checkout(served)
		if err != nil {
			pinSp.End()
			endAdmit()
			return nil, err
		}
		if pin != nil {
			pinSp.SetAttr("generation", pin.Generation())
			defer pin.Release()
		}
		pinSp.End()
		gp, err := pool.Acquire(ctx)
		endAdmit()
		if err != nil {
			return nil, err
		}
		// Scratch rides with the engine checkout: warm buffers make the
		// steady-state query allocation-free. Answers may alias it until
		// detachSubsets below, which runs before the Scratch is repooled.
		scr := pool.GetScratch()
		q.Scratch = scr

		stop := q.BindContext(ctx)
		defer stop()

		// Attribute the engine's internal settles to this request's Stats.
		// Pooled engines MUST be unbound before going back to the free
		// list: a stale binding would let the next request write into this
		// one's finished Stats. The cache wrapper is per-request state
		// around the pooled engine; a probe skips it so every evaluation
		// exercises the real substrate.
		eng := gp
		if accel {
			eng = s.qc.Wrap(gp)
		}
		core.BindStats(eng, stats)
		core.BindCancel(eng, ctx.Done())

		computeStart := time.Now()
		computeSp := tr.StartSpan("compute")
		completed := false
		defer func() {
			em.flush(stats)
			if completed {
				core.BindStats(gp, nil)
				core.BindCancel(gp, nil)
				pool.Release(gp)
				pool.PutScratch(scr)
				return
			}
			// On panic the engine's internal state is suspect: drop it for
			// the GC instead of poisoning the free list (recoverPanics
			// answers 500), and feed the breaker so repeated blowups open
			// it.
			outcome = "internal"
			pool.Discard()
			report(false)
		}()
		answers, err = core.Dispatch(s.g, req.Algo, eng, q, req.K)
		completed = true
		if mode := qcache.ListMode(eng); mode != "" {
			computeSp.SetAttr("lists", mode)
		}
		computeSp.End()
		elapsed := time.Since(computeStart)
		computeMicros = elapsed.Microseconds()
		em.compute.ObserveEx(elapsed.Seconds(), tr.ID)
		// Detach before the deferred PutScratch: the answers outlive the
		// checkout (JSON encoding, the result cache, coalesced followers),
		// so any subset aliasing the Scratch must be cloned first.
		detachSubsets(answers)
		if err == nil {
			s.qc.PutResult(rkey, answers)
		}
		return answers, err
	}

	// Coalescing: concurrent identical queries share one runQuery. The
	// leader executes here; followers wait and adopt shareable outcomes.
	// A follower never reports to the breaker (it ran nothing) and a
	// canceled or panicking leader promotes a follower instead of
	// poisoning it.
	var answers []core.Answer
	var err error
	coalesced := false
	if s.flight != nil && accel {
		coSp := tr.StartSpan("coalesce")
		var v any
		var leader string
		v, err, coalesced, leader = s.flight.Do(ctx, rkey, tr.ID, func() (any, error) { return runQuery() })
		if v != nil {
			answers = v.([]core.Answer)
		}
		if leader != "" {
			leaderID = leader
		}
		if coalesced {
			cacheKind = "coalesced"
			stats.CountCacheHit()
			// Attribution fix: the follower's trace and log line name the
			// leader whose computation produced this answer. The span
			// carries the coalesced hit so per-span counts still sum to the
			// request's counter deltas.
			coSp.SetAttr("role", "follower")
			coSp.SetAttr("leader", leader)
			coSp.Count("cache_hits", 1)
			if m := s.metrics.coalesced; m != nil {
				m.Inc()
			}
		} else {
			coSp.SetAttr("role", "leader")
		}
		coSp.End()
	} else {
		answers, err = runQuery()
	}
	if err != nil {
		if errors.Is(err, core.ErrSaturated) {
			outcome = "overloaded"
			s.shed(w, err)
			return
		}
		// A checkout that raced a quarantine (the holder refused a pin) is
		// retryable exactly like saturation: the next request routes down
		// the ladder. The request that hit the fault itself answers 503
		// "index_fault", also with a Retry-After — after the quarantine
		// the ladder serves, and after a reload the index is back.
		if errors.Is(err, lifecycle.ErrUnavailable) {
			outcome = "overloaded"
			s.shed(w, err)
			return
		}
		var ifault *lifecycle.IndexFault
		if errors.As(err, &ifault) {
			s.retryAfterHeader(w)
		}
		if errors.Is(err, core.ErrCanceled) {
			// Attribute the abort: a server-side deadline is a 504 the
			// client will read; a vanished client just gets the connection
			// closed.
			if ctxErr := ctx.Err(); ctxErr != nil {
				err = fmt.Errorf("%w: %w", err, ctxErr)
			}
		}
		// Client-fault and no-result outcomes prove the engine worked;
		// internal errors count against it. Timeouts prove nothing —
		// except for a probe, which the deferred guard above fails.
		// Coalesced followers never report: they ran nothing.
		if !coalesced {
			switch status, _ := errStatus(err); status {
			case http.StatusInternalServerError:
				report(false)
			case http.StatusBadRequest, http.StatusNotFound:
				report(true)
			}
		}
		failq(err)
		return
	}
	if !coalesced {
		report(true)
	}
	if degraded {
		em.degraded.Inc()
	}
	micros := computeMicros
	if coalesced {
		micros = time.Since(start).Microseconds()
	}
	// A computed request whose only cache traffic was partial-list reuse
	// answered from subsumption: surface that as the cache outcome.
	if cacheKind == "" && accel && stats.CacheHits > 0 {
		cacheKind = "subsume"
	}
	if cacheKind != "" {
		root.SetAttr("cache", cacheKind)
	}
	resp := FANNResponse{Micros: micros, Engine: served, Degraded: degraded}
	for _, a := range answers {
		resp.Answers = append(resp.Answers, FANNAnswer{P: a.P, Dist: a.Dist, Subset: a.Subset})
	}
	if explain {
		resp.Explain = tr.Report()
	}
	writeJSON(w, http.StatusOK, resp)
}

// generationKey is the engine member of a reloadable engine's cache key,
// engine@generation. Appended into a stack buffer: the string is the only
// allocation, on a path every request of such an engine takes, cache hits
// included.
func generationKey(engine string, gen uint64) string {
	var buf [64]byte
	b := append(buf[:0], engine...)
	b = append(b, '@')
	return string(strconv.AppendUint(b, gen, 10))
}

// detachSubsets clones every answer's subset out of whatever buffer the
// engine or Scratch produced it in, giving the answers independent
// lifetimes.
func detachSubsets(answers []core.Answer) {
	for i, a := range answers {
		if len(a.Subset) > 0 {
			answers[i].Subset = append([]graph.NodeID(nil), a.Subset...)
		}
	}
}

// routeEngine resolves which pool serves a request for requested: the
// engine itself while its breaker admits, otherwise the first engine
// down the fallback ladder whose breaker does. A half-open breaker
// admits exactly one caller — the recovery probe, flagged so the
// handler can guarantee the probe reports an outcome no matter how the
// request ends. ok is false when the ladder ends with every breaker
// open.
func (s *Server) routeEngine(requested string) (served string, degraded, probe, ok bool) {
	name := requested
	for hops := 0; hops <= len(s.pools)+len(s.engineIndex); hops++ {
		// A quarantined (or mid-initial-load) reloadable index skips its
		// engines entirely — same degrade semantics as an open breaker,
		// but gated on the index's lifecycle state, not failure counts.
		if s.hasEngine(name) && s.engineAvailable(name) {
			if admitted, isProbe := s.breakers[name].Admit(); admitted {
				return name, name != requested, isProbe, true
			}
		}
		next, has := s.fallback[name]
		if !has {
			return "", false, false, false
		}
		name = next
	}
	return "", false, false, false
}

// decodeErr classifies a request-body decoding failure: an oversized body
// keeps its *http.MaxBytesError identity (413), everything else is a
// malformed request (400).
func decodeErr(err error) error {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return fmt.Errorf("decoding request: %w", err)
	}
	return fmt.Errorf("%w: decoding request: %s", core.ErrInvalid, err)
}

// DistRequest is the /dist request body.
type DistRequest struct {
	U graph.NodeID `json:"u"`
	V graph.NodeID `json:"v"`
}

func (s *Server) handleDist(w http.ResponseWriter, r *http.Request) {
	var req DistRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxDistBody)).Decode(&req); err != nil {
		fail(w, decodeErr(err))
		return
	}
	n := graph.NodeID(s.g.NumNodes())
	if req.U < 0 || req.U >= n || req.V < 0 || req.V >= n {
		fail(w, invalidf("node ids outside [0,%d)", n))
		return
	}
	// /dist draws the same O(|V|) class of scratch as /fann (a pooled
	// Dijkstra per in-flight request), so it sits behind its own
	// admission gate with the engine-pool limits: saturation sheds with
	// 503 + Retry-After instead of growing the sync.Pool without bound.
	if err := s.distGate.Acquire(r.Context()); err != nil {
		if errors.Is(err, core.ErrSaturated) {
			s.shed(w, err)
			return
		}
		fail(w, err)
		return
	}
	defer s.distGate.Release()
	d := s.dist.Get().(*sp.Dijkstra)
	dist := d.Dist(req.U, req.V)
	s.dist.Put(d)
	writeJSON(w, http.StatusOK, map[string]float64{"dist": dist})
}
