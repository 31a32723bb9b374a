package server

import (
	"context"
	"net/http"
	"strconv"
	"sync"
	"time"

	"fannr/internal/core"
	"fannr/internal/obs"
	"fannr/internal/resil"
)

// Metric names exposed on /metrics. They are part of the operational
// contract: dashboards and the golden scrape test key on them, so renames
// are breaking changes (DESIGN.md §15 is the catalogue).
const (
	mRequestsTotal  = "fannr_requests_total"
	mRequestSeconds = "fannr_request_seconds"
	mComputeSeconds = "fannr_query_compute_seconds"
	mGPhiEvals      = "fannr_gphi_evals_total"
	mGPhiAbandoned  = "fannr_gphi_abandoned_total"
	mGPhiSubsets    = "fannr_gphi_subsets_total"
	mHeapPops       = "fannr_heap_pops_total"
	mIndexVisits    = "fannr_index_visits_total"
	mPruned         = "fannr_pruned_total"
	mSettled        = "fannr_dijkstra_settled_total"
	mDegraded       = "fannr_degraded_total"
	mPoolInflight   = "fannr_pool_inflight"
	mPoolQueued     = "fannr_pool_queued"
	mPoolShed       = "fannr_pool_shed_total"
	mPoolCreated    = "fannr_pool_created_total"
	mPoolReused     = "fannr_pool_reused_total"
	mPoolIdle       = "fannr_pool_idle"
	mDistInflight   = "fannr_dist_inflight"
	mDistQueued     = "fannr_dist_queued"
	mDistShed       = "fannr_dist_shed_total"
	mBreakerState   = "fannr_breaker_state"
	mBreakerTrips   = "fannr_breaker_trips_total"
	mDraining       = "fannr_draining"
	mUptime         = "fannr_uptime_seconds"
	mCacheHits      = "fannr_cache_hits_total"
	mCacheMisses    = "fannr_cache_misses_total"
	mCacheEvictions = "fannr_cache_evictions_total"
	mCacheEntries   = "fannr_cache_entries"
	mCacheBytes     = "fannr_cache_bytes"
	mCoalesced      = "fannr_coalesced_total"
	mIndexBytes     = "fannr_index_bytes"
	// fannr_sets_{hits,fills,skips,evictions}_total: the set registry's
	// counters. Not fannr_cache_*: the result cache's hit rate and
	// eviction count must keep meaning what they meant.
	mSetsPrefix = "fannr_sets"
	// Lifecycle series (file-backed indexes only): memory faults contained
	// on an index's mapping, reload attempts by outcome, the serving
	// generation, and whether the index is currently quarantined.
	mIndexFaults      = "fannr_index_faults_total"
	mIndexReloads     = "fannr_index_reloads_total"
	mIndexGeneration  = "fannr_index_generation"
	mIndexQuarantined = "fannr_index_quarantined"
)

// engineMetrics is the per-engine handle set, prefetched once at freeze
// time so the request path records op counts with plain atomic adds — no
// registry lookups, no label formatting.
type engineMetrics struct {
	compute  *obs.Histogram
	evals    *obs.Counter
	abandons *obs.Counter
	subsets  *obs.Counter
	pops     *obs.Counter
	visits   *obs.Counter
	pruned   *obs.Counter
	settled  *obs.Counter
	degraded *obs.Counter
	trips    *obs.Counter
}

// flush folds one finished query's Stats into the engine's counters.
func (em *engineMetrics) flush(st *core.Stats) {
	if em == nil || st == nil {
		return
	}
	em.evals.Add(st.GPhiEvals)
	em.abandons.Add(st.GPhiAbandoned)
	em.subsets.Add(st.GPhiSubsets)
	em.pops.Add(st.HeapPops)
	em.visits.Add(st.IndexVisits)
	em.pruned.Add(st.Pruned)
	em.settled.Add(st.Settled)
}

// serverMetrics owns the registry plus every prefetched handle.
type serverMetrics struct {
	reg            *obs.Registry
	engines        map[string]*engineMetrics
	requestSeconds map[string]*obs.Histogram // by route label
	requests       map[string]*sync.Map      // by route label: status → *obs.Counter
	coalesced      *obs.Counter              // nil when coalescing is off
	// indexFaults is incremented by noteIndexFault for every contained
	// memory fault, keyed by index name (file-backed indexes only).
	indexFaults map[string]*obs.Counter
}

// routes instrumented with their own latency series. Anything else (404s,
// probes for paths that don't exist) lands in "other" so cardinality
// stays bounded no matter what clients request.
var knownRoutes = map[string]string{
	"/fann":         "fann",
	"/dist":         "dist",
	"/meta":         "meta",
	"/health":       "healthz",
	"/healthz":      "healthz",
	"/readyz":       "readyz",
	"/metrics":      "metrics",
	"/admin/reload": "admin_reload",
	"/debug/slow":   "debug_slow",
}

func routeLabel(path string) string {
	if r, ok := knownRoutes[path]; ok {
		return r
	}
	return "other"
}

// newServerMetrics builds the full metric surface over a frozen server:
// op counters, compute histograms, breaker series and pool series per
// engine, the /dist gate, the drain flag, and the breaker trip counters
// wired through OnTransition. Called exactly once, from Handler, after
// registration froze — the registry is immutable from here on, so the
// closures read it lock-free like the request path.
func newServerMetrics(s *Server, reg *obs.Registry) *serverMetrics {
	m := &serverMetrics{
		reg:            reg,
		engines:        make(map[string]*engineMetrics, len(s.engines)),
		requestSeconds: make(map[string]*obs.Histogram, len(knownRoutes)+1),
		requests:       make(map[string]*sync.Map, len(knownRoutes)+1),
		indexFaults:    make(map[string]*obs.Counter, len(s.indexes)),
	}
	for _, route := range []string{"fann", "dist", "meta", "healthz", "readyz", "metrics", "admin_reload", "debug_slow", "other"} {
		m.requestSeconds[route] = reg.Histogram(mRequestSeconds,
			"HTTP request latency by route.", obs.DefBuckets, obs.L("route", route))
		m.requests[route] = new(sync.Map)
	}
	// Pool series read through the live generation, plus the totals folded
	// from closed generations, so the counter-shaped series stay
	// cumulative across swaps (a scrape racing a swap may observe a
	// transient dip, never a loss).
	for name, r := range s.engines {
		el := obs.L("engine", name)
		em := &engineMetrics{
			compute: reg.Histogram(mComputeSeconds,
				"FANN_R query compute time by serving engine (excludes queue wait).",
				obs.DefBuckets, el),
			evals: reg.Counter(mGPhiEvals,
				"g_phi distance evaluations performed by queries on this engine.", el),
			abandons: reg.Counter(mGPhiAbandoned,
				"g_phi evaluations the engine ended early: a lower bound showed the value could not beat the incumbent.", el),
			subsets: reg.Counter(mGPhiSubsets,
				"g_phi subset materializations performed on this engine.", el),
			pops: reg.Counter(mHeapPops,
				"Best-first heap pops performed by queries on this engine.", el),
			visits: reg.Counter(mIndexVisits,
				"Index-node visits performed by queries on this engine.", el),
			pruned: reg.Counter(mPruned,
				"Candidates discarded without a g_phi evaluation.", el),
			settled: reg.Counter(mSettled,
				"Network nodes settled by shortest-path searches on this engine.", el),
			degraded: reg.Counter(mDegraded,
				"Responses this engine served for another engine via the fallback ladder.", el),
			trips: reg.Counter(mBreakerTrips,
				"Times this engine's circuit breaker tripped open.", el),
		}
		m.engines[name] = em

		b := s.breakers[name]
		reg.GaugeFunc(mBreakerState,
			"Circuit breaker state: 0 closed, 1 half-open, 2 open.",
			func() float64 { return float64(b.State()) }, el)
		b.OnTransition(func(_, to resil.State) {
			if to == resil.Open {
				em.trips.Inc()
			}
		})
		reg.GaugeFunc(mPoolInflight, "Engines of this kind checked out right now.",
			func() float64 { inflight, _, _ := r.poolGauges(name); return float64(inflight) }, el)
		reg.GaugeFunc(mPoolQueued, "Requests waiting for an engine of this kind.",
			func() float64 { _, queued, _ := r.poolGauges(name); return float64(queued) }, el)
		reg.CounterFunc(mPoolShed, "Requests shed at this pool's admission gate.",
			func() float64 { _, _, shed := r.poolGauges(name); return float64(shed) }, el)
		reg.CounterFunc(mPoolCreated, "Engines of this kind ever constructed.",
			func() float64 { created, _, _ := r.poolStats(name); return float64(created) }, el)
		reg.CounterFunc(mPoolReused, "Checkouts served from the free list.",
			func() float64 { _, reused, _ := r.poolStats(name); return float64(reused) }, el)
		reg.GaugeFunc(mPoolIdle, "Engines of this kind idle on the free list.",
			func() float64 { _, _, idle := r.poolStats(name); return float64(idle) }, el)
	}
	reg.GaugeFunc(mDistInflight, "In-flight /dist computations.",
		func() float64 { inflight, _, _ := s.distGate.Gauges(); return float64(inflight) })
	reg.GaugeFunc(mDistQueued, "Requests waiting at the /dist gate.",
		func() float64 { _, queued, _ := s.distGate.Gauges(); return float64(queued) })
	reg.CounterFunc(mDistShed, "Requests shed at the /dist gate.",
		func() float64 { _, _, shed := s.distGate.Gauges(); return float64(shed) })
	reg.GaugeFunc(mDraining, "1 once graceful drain has begun, else 0.",
		func() float64 {
			if s.draining.Load() {
				return 1
			}
			return 0
		})
	reg.GaugeFunc(mUptime, "Seconds since the server started.",
		func() float64 { return time.Since(s.started).Seconds() })
	// The cache series read the qcache counters through Func handles —
	// /meta and /metrics then necessarily agree. Registered only when the
	// matching layer is on, so a cache-less deployment's scrape is
	// byte-identical to PR 4's.
	if qc := s.qc; qc != nil {
		reg.CounterFunc(mCacheHits, "Cache hits by kind: exact result reuse.",
			func() float64 { return float64(qc.Metrics().HitsExact) }, obs.L("kind", "exact"))
		reg.CounterFunc(mCacheMisses, "Cache misses by kind (lookups that had to compute).",
			func() float64 { return float64(qc.Metrics().MissesExact) }, obs.L("kind", "exact"))
		reg.CounterFunc(mCacheEvictions, "Cache entries evicted by the LRU.",
			func() float64 { return float64(qc.Metrics().Evictions) })
		reg.GaugeFunc(mCacheEntries, "Live cache entries (results).",
			func() float64 { return float64(qc.Metrics().Entries) })
		reg.GaugeFunc(mCacheBytes, "Approximate bytes held by live cache entries.",
			func() float64 { return float64(qc.Metrics().Bytes) })
	}
	s.tier.Sets.RegisterMetrics(reg, mSetsPrefix)
	// Index sizes read through a short-lived pin on the live generation
	// (0 while quarantined); file-backed indexes add the lifecycle series.
	for name, r := range s.indexes {
		il := obs.L("index", name)
		reg.GaugeFunc(mIndexBytes, "Bytes of a preprocessing index by backing memory (heap vs mmap).",
			func() float64 { heap, _, _ := r.footprint(); return float64(heap) }, il, obs.L("mem", "heap"))
		reg.GaugeFunc(mIndexBytes, "Bytes of a preprocessing index by backing memory (heap vs mmap).",
			func() float64 { _, mapped, _ := r.footprint(); return float64(mapped) }, il, obs.L("mem", "mapped"))
		if !r.reloadable() {
			continue
		}
		m.indexFaults[name] = reg.Counter(mIndexFaults,
			"Memory faults (SIGBUS/SIGSEGV) contained on this index's mapping.", il)
		reg.CounterFunc(mIndexReloads, "Index reload attempts by outcome.",
			func() float64 { return float64(r.holder.State().Reloads) }, il, obs.L("outcome", "ok"))
		reg.CounterFunc(mIndexReloads, "Index reload attempts by outcome.",
			func() float64 { return float64(r.holder.State().ReloadFailures) }, il, obs.L("outcome", "error"))
		reg.GaugeFunc(mIndexGeneration, "Generation of the serving index (1 = initial load).",
			func() float64 { return float64(r.holder.State().Generation) }, il)
		reg.GaugeFunc(mIndexQuarantined, "1 while this index is quarantined after a fault, else 0.",
			func() float64 {
				if r.holder.State().Quarantined {
					return 1
				}
				return 0
			}, il)
	}
	if s.flight != nil {
		m.coalesced = reg.Counter(mCoalesced,
			"Requests answered by another in-flight identical query's computation.")
	}
	return m
}

// observeRequest records one finished HTTP request. The status counter is
// registered the first time its route answers with that status, and read
// lock-free after; the latency histogram is prefetched. id tags the
// latency bucket with an exemplar, linking a /metrics p99 spike back to
// the request trace captured at /debug/slow.
func (m *serverMetrics) observeRequest(route string, status int, elapsed time.Duration, id string) {
	c, ok := m.requests[route].Load(status)
	if !ok {
		c, _ = m.requests[route].LoadOrStore(status, m.reg.Counter(mRequestsTotal,
			"HTTP requests by route and status code.", obs.L("route", route), obs.L("code", strconv.Itoa(status))))
	}
	c.(*obs.Counter).Inc()
	if h, ok := m.requestSeconds[route]; ok {
		h.ObserveEx(elapsed.Seconds(), id)
	}
}

// statusRecorder captures the status a handler wrote so the instrument
// middleware can label the request counter after the fact.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// requestIDKey carries the request id through the context to handlers
// that log.
type requestIDKey struct{}

// requestID returns the id the instrument middleware assigned.
func requestID(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

// instrument wraps the whole route tree (outside panic recovery, so a
// recovered panic's 500 is still counted): it assigns or echoes
// X-Request-Id, times the request, and records the route/status series.
// The header name is spelled canonically, so Get and Set use it as is
// instead of canonicalising a copy on every request.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := r.Header.Get("X-Request-Id")
		if id == "" {
			id = obs.NewRequestID()
		}
		w.Header().Set("X-Request-Id", id)
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(rec, r.WithContext(context.WithValue(r.Context(), requestIDKey{}, id)))
		s.metrics.observeRequest(routeLabel(r.URL.Path), rec.status, time.Since(start), id)
	})
}
