package core

// Stats collects per-query operation counts — the quantities the paper's
// efficiency arguments are actually about (§VI): how many g_φ
// evaluations an algorithm spent, how many candidates its bounds pruned
// before evaluation, how many network nodes its engine settled, how many
// heap/queue operations the search performed and how many index nodes it
// visited. GD evaluates all of P; R-List stops early via its threshold;
// IER-kNN prunes via Euclidean bounds; Exact-max evaluates g_φ once —
// with Stats those claims are measurable on live traffic, not just in
// offline experiments.
//
// A Stats belongs to one query on one goroutine. The hook is designed to
// cost ~nothing when disabled: every algorithm carries a *Stats that is
// usually nil, and the nil-receiver Count methods compile to a pointer
// test plus nothing. No allocation ever happens on behalf of a nil
// Stats (guarded by TestStatsDisabledZeroAlloc and the overhead bench).
type Stats struct {
	// GPhiEvals counts g_φ distance evaluations (engine Dist calls made
	// by the algorithm) — the paper's primary cost unit.
	GPhiEvals int64
	// GPhiAbandoned counts the evaluations among GPhiEvals that the
	// engine ended early: lower bounds on the distances to Q showed the
	// value could not come in under the incumbent (DistBelower).
	GPhiAbandoned int64
	// GPhiSubsets counts engine Subset calls (answer materialization).
	GPhiSubsets int64
	// HeapPops counts best-first and meta-heap pop operations (IER-kNN
	// priority queue, the R-List/Exact-max switchable expansion).
	HeapPops int64
	// IndexVisits counts index-node expansions: R-tree nodes opened by
	// the IER-kNN search over P, G-tree kNN calls, and the candidates an
	// IER-* engine's Euclidean scan over Q surfaces — none for IER-PHL,
	// which resolves through the bound Q and scans nothing.
	IndexVisits int64
	// Pruned counts candidates discarded without a g_φ evaluation (IER
	// entries still queued when the bound terminated the scan).
	Pruned int64
	// Settled counts network nodes settled inside the engine (Dijkstra/
	// A*/expander settles), the shortest-path work behind the evals.
	Settled int64
	// CacheHits counts evaluations answered from a cached neighbor list
	// (qcache subsumption hits, plus one per request served as an exact
	// result hit) — evaluations that touched no shortest-path substrate.
	CacheHits int64
	// CacheMisses counts evaluations the cache had to compute and fill.
	CacheMisses int64
}

// CountEval records one g_φ evaluation. All Count methods are safe on a
// nil receiver — the disabled path.
func (s *Stats) CountEval() {
	if s != nil {
		s.GPhiEvals++
	}
}

// CountAbandoned records one g_φ evaluation ended early by a bound.
func (s *Stats) CountAbandoned() {
	if s != nil {
		s.GPhiAbandoned++
	}
}

// CountSubset records one engine Subset call.
func (s *Stats) CountSubset() {
	if s != nil {
		s.GPhiSubsets++
	}
}

// CountPop records one heap pop.
func (s *Stats) CountPop() {
	if s != nil {
		s.HeapPops++
	}
}

// CountVisit records one index-node expansion.
func (s *Stats) CountVisit() {
	if s != nil {
		s.IndexVisits++
	}
}

// CountPruned records n candidates discarded without evaluation.
func (s *Stats) CountPruned(n int64) {
	if s != nil {
		s.Pruned += n
	}
}

// CountSettled records n network nodes settled by the engine.
func (s *Stats) CountSettled(n int64) {
	if s != nil {
		s.Settled += n
	}
}

// CountCacheHit records one evaluation served from cache.
func (s *Stats) CountCacheHit() {
	if s != nil {
		s.CacheHits++
	}
}

// CountCacheMiss records one evaluation the cache had to compute.
func (s *Stats) CountCacheMiss() {
	if s != nil {
		s.CacheMisses++
	}
}

// Add accumulates o into s (for aggregating per-query stats into totals).
func (s *Stats) Add(o Stats) {
	if s == nil {
		return
	}
	s.GPhiEvals += o.GPhiEvals
	s.GPhiAbandoned += o.GPhiAbandoned
	s.GPhiSubsets += o.GPhiSubsets
	s.HeapPops += o.HeapPops
	s.IndexVisits += o.IndexVisits
	s.Pruned += o.Pruned
	s.Settled += o.Settled
	s.CacheHits += o.CacheHits
	s.CacheMisses += o.CacheMisses
}

// StatsSink is implemented by g_φ engines that can attribute internal
// work (node settles) to the query's Stats. Binding nil detaches the
// engine — pooled engines MUST be unbound before going back to their
// free list so they never write through a stale pointer into a finished
// request.
type StatsSink interface {
	BindStats(*Stats)
}

// BindStats attaches s to gp when the engine supports it (and is a no-op
// otherwise, so wrappers that don't forward the interface just lose
// settle attribution, never correctness).
func BindStats(gp GPhi, s *Stats) {
	if sink, ok := gp.(StatsSink); ok {
		sink.BindStats(s)
	}
}

// settleCounter is the optional interface sp engines and oracles expose
// (sp.Dijkstra, sp.AStar, sp.Expander all have it); the
// engine adapters read deltas around each evaluation to attribute
// settles per query.
type settleCounter interface {
	NodesScanned() int64
}

// scanOf returns the cumulative settle count of o, or 0 when the oracle
// does not expose one (hub labels answer from precomputed tables and
// settle nothing at query time).
func scanOf(o any) int64 {
	if sc, ok := o.(settleCounter); ok {
		return sc.NodesScanned()
	}
	return 0
}
