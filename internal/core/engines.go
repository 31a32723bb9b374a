package core

import (
	"fmt"
	"math"
	"slices"

	"fannr/internal/graph"
	"fannr/internal/gtree"
	"fannr/internal/pqueue"
	"fannr/internal/rtree"
	"fannr/internal/sp"
)

// This file provides the g_φ engines of the paper's Table I:
//
//	INE        — incremental network expansion (no index)
//	A*/PHL/... — NewOracleGPhi: one point-to-point distance per q ∈ Q
//	GTree      — occurrence-list kNN over the G-tree
//	IER-*      — NewIERGPhi: R-tree over Q + incremental Euclidean
//	             restriction around a distance oracle (IER-A*,
//	             IER-GTree — the "IER²" building block of §III-C).
//	             Over an oracle that binds Q (IER-PHL) the name is kept
//	             and the search is the oracle engine's: one label walk
//	             prices all of Q, so restricting it saves nothing.
//
// Every engine also takes the incumbent a value is to be compared with
// (DistBelower) and stops an evaluation that cannot come in under it.
// PHL and IER-PHL bound off the first hubs of their label walk. The
// others stop their own search — G-tree and IER once the k-th neighbour
// cannot be under the incumbent, INE once its frontier says so — and,
// on a graph with coordinates, first ask the flexible Euclidean
// aggregate of Lemma 1 (euclidQ.rejects), which turns far candidates
// away before any index or graph node is touched.

// NeighborSearcher is the optional engine capability the query cache
// (internal/qcache) builds on: the paper's "Revisitation of g_φ"
// observes that every flexible aggregate is a fold over the k nearest
// members of Q, so an engine that can hand out that sorted list lets a
// cache answer every φ' ≤ φ (k' ≤ k) from one computation. All built-in
// engines implement it; a GPhi without it simply cannot be wrapped.
type NeighborSearcher interface {
	// KNearest appends the k network-nearest members of the bound Q to
	// dst, sorted ascending by distance, and returns the extended slice.
	// Fewer than k neighbors mean fewer than k members of Q are
	// reachable from p. The result must agree with Dist/Subset:
	// Dist(p,k,agg) == AggSorted(KNearest(p,k,nil), k, agg) and
	// Subset(p,k,nil) lists the same nodes in the same order.
	KNearest(p graph.NodeID, k int, dst []sp.Neighbor) []sp.Neighbor
}

// DistBelower is the optional engine capability the search loops build
// on: every algorithm uses g_φ(p, Q) for one thing, comparing it with the
// incumbent, so an engine that can tell early that the value will not be
// under the incumbent need not finish computing it. Every built-in
// engine implements it (see the top of this file); the cache and chaos
// wrappers forward it.
type DistBelower interface {
	// DistBelow returns exactly what Dist returns whenever that value is
	// under tau. Otherwise it may return ok = false without finishing the
	// evaluation, or Dist's result all the same; nothing else. With tau =
	// +Inf it is Dist.
	DistBelow(p graph.NodeID, k int, agg Aggregate, tau float64) (float64, bool)
}

// AggSorted is the fold: it reduces a sorted ascending neighbor list to
// the aggregate of its k-prefix, reporting ok=false when fewer than k
// neighbors exist. Every engine's Dist is this function over its
// neighbour search, and it is exported so cached neighbor lists
// aggregate bit-identically to a live engine. The sum runs in ascending
// order; a per-query-point weight would enter here and nowhere else.
func AggSorted(nbrs []sp.Neighbor, k int, agg Aggregate) (float64, bool) {
	if len(nbrs) < k {
		return math.Inf(1), false
	}
	if agg == Max {
		return nbrs[k-1].Dist, true
	}
	total := 0.0
	for _, nb := range nbrs[:k] {
		total += nb.Dist
	}
	return total, true
}

// SubsetSorted is the projection: it appends the nodes of the k-prefix
// of a sorted ascending neighbor list (all of it when shorter) to dst.
// Every engine's Subset is this function over its neighbour search.
func SubsetSorted(nbrs []sp.Neighbor, k int, dst []graph.NodeID) []graph.NodeID {
	for _, nb := range nbrs[:min(k, len(nbrs))] {
		dst = append(dst, nb.Node)
	}
	return dst
}

// neighborSearch is all a built-in engine implements: its binding to Q
// and its neighbour search. nearest returns the (at most) k
// network-nearest members of the bound Q sorted ascending by distance,
// in a buffer the engine owns and reuses on the next call, and true. A
// finite tau allows it to stop once the aggregate of those k cannot be
// under tau, and return false instead.
type neighborSearch interface {
	Name() string
	Reset(Q []graph.NodeID)
	BindStats(*Stats)
	nearest(p graph.NodeID, k int, agg Aggregate, tau float64) ([]sp.Neighbor, bool)
}

// engine makes a GPhi out of a neighbour search through the fold and the
// projection above, so the NeighborSearcher contract holds by
// construction for every built-in engine, and puts the Euclidean
// pre-bound in front of its DistBelow.
type engine struct {
	neighborSearch
	lb    euclidQ
	stats *Stats
}

// newEngine wraps s; g supplies the pre-bound's coordinates, if it has
// any.
func newEngine(s neighborSearch, g *graph.Graph) *engine {
	return &engine{neighborSearch: s, lb: euclidQ{g: withCoords(g)}}
}

func (e *engine) Reset(Q []graph.NodeID) {
	e.neighborSearch.Reset(Q)
	e.lb.reset(Q)
}

func (e *engine) BindStats(s *Stats) {
	e.stats = s
	e.neighborSearch.BindStats(s)
}

func (e *engine) Dist(p graph.NodeID, k int, agg Aggregate) (float64, bool) {
	return e.DistBelow(p, k, agg, math.Inf(1))
}

// DistBelow asks the Euclidean bound first and the search second; either
// may end the evaluation, which is then counted as abandoned. A search
// that runs to the end folds exactly what Dist folds.
// BenchmarkGDAbandon (make microbench) prices both steps — GD through
// Dispatch on NW 1/64, fresh Q per request, µs per query at -cpu 1
// (medians of 5 interleaved runs), and the share of evaluations
// abandoned:
//
//	shape (|P| × M, aggregate)          bare Dist   native exit   + pre-bound
//	GTree, gd-gtree-max's, 17 × 128, max    2 453     1 272 (88 %)    475 (88 %)
//	the same, sum                           1 998     1 837 (0 %)     409 (76 %)
//	INE, rlist-ine-sum's, 169 × 32, max   220 525    10 822 (98 %)  1 878 (98 %)
//	the same, sum                         225 089     6 677 (98 %)  1 592 (98 %)
//
// G-tree's exit is on the k-th distance alone, which a sum of 64 rarely
// lets reach the incumbent; the pre-bound is what rejects those, before
// the chain climb the exit would still pay.
func (e *engine) DistBelow(p graph.NodeID, k int, agg Aggregate, tau float64) (float64, bool) {
	if e.lb.rejects(p, k, agg, tau) {
		e.stats.CountAbandoned()
		return math.Inf(1), false
	}
	nbrs, ok := e.nearest(p, k, agg, tau)
	if !ok {
		e.stats.CountAbandoned()
		return math.Inf(1), false
	}
	return AggSorted(nbrs, k, agg)
}

func (e *engine) Subset(p graph.NodeID, k int, dst []graph.NodeID) []graph.NodeID {
	nbrs, _ := e.nearest(p, k, Max, math.Inf(1))
	return SubsetSorted(nbrs, k, dst)
}

func (e *engine) KNearest(p graph.NodeID, k int, dst []sp.Neighbor) []sp.Neighbor {
	nbrs, _ := e.nearest(p, k, Max, math.Inf(1))
	return append(dst, nbrs...)
}

// BatchOracle is the optional oracle capability behind batched g_φ
// evaluation: one scan of u's label/border data serves every target,
// instead of |targets| independent point-to-point merges. Contract:
// out[i] receives the exact distance u→targets[i] (+Inf when
// disconnected), len(out) must be at least len(targets), out is owned by
// the caller and fully overwritten, and warm implementations allocate
// nothing. phl.Batcher, gtree.Querier and sp.Dijkstra implement it; the
// oracle engines detect it and fall back to per-pair Dist without it.
type BatchOracle interface {
	DistBatch(u graph.NodeID, targets []graph.NodeID, out []float64)
}

// boundOracle is the optional oracle capability behind target-bound g_φ
// evaluation: g_φ resolves many sources against one fixed Q, so an
// oracle that can index Q once (phl.Batcher inverts its hub labels into
// per-hub buckets) answers each source in time proportional to what the
// source shares with Q. DistBound obeys the BatchOracle contract with
// the bound list as targets; oracleEngine detects it next to BatchOracle.
// The walk can also be taken in two steps: DistBoundPrefix stops after
// hubs entries of u's label have met a bucket, leaving in lb[i] a lower
// bound on the distance to target i and returning where it stopped, and
// DistBoundResume carries out on from there to DistBound's result.
type boundOracle interface {
	BindTargets(Q []graph.NodeID)
	DistBound(u graph.NodeID, out []float64)
	DistBoundPrefix(u graph.NodeID, hubs int, out, lb []float64) int
	DistBoundResume(u graph.NodeID, pos int, out []float64)
}

// batchProvider is implemented by shared concurrent-reader indexes
// (phl.Index) that cannot carry per-query scatter state themselves but
// can mint a single-goroutine batching front-end.
type batchProvider interface{ NewBatchOracle() any }

// batchOf resolves o's batching capability: a provider is swapped for its
// minted front-end (which also serves Dist), otherwise o itself is probed
// for DistBatch. The second return is nil when batching is unavailable.
func batchOf(o Oracle) (Oracle, BatchOracle) {
	if p, ok := o.(batchProvider); ok {
		if alt, ok2 := p.NewBatchOracle().(Oracle); ok2 {
			o = alt
		}
	}
	b, _ := o.(BatchOracle)
	return o, b
}

// growF returns buf resized to n elements, reallocating only on growth.
func growF(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// cmpNeighbor orders neighbors by ascending distance (a package-level
// func so slices.SortFunc does not allocate a closure).
func cmpNeighbor(a, b sp.Neighbor) int {
	switch {
	case a.Dist < b.Dist:
		return -1
	case a.Dist > b.Dist:
		return 1
	default:
		return 0
	}
}

// cmpNeighborNode orders neighbors by ascending distance, then node id: a
// total order on a duplicate-free Q, so the k-prefix is one fixed set
// whatever subset of Q was sorted to find it.
func cmpNeighborNode(a, b sp.Neighbor) int {
	if c := cmpNeighbor(a, b); c != 0 {
		return c
	}
	return int(a.Node) - int(b.Node)
}

// NewINE returns the INE engine: a Dijkstra expansion from p that stops
// once k query points settle.
func NewINE(g *graph.Graph) GPhi {
	return newEngine(&ineEngine{
		d:       sp.NewDijkstra(g),
		targets: graph.NewNodeSet(g.NumNodes()),
	}, g)
}

type ineEngine struct {
	d       *sp.Dijkstra
	targets *graph.NodeSet
	buf     []sp.Neighbor
	stats   *Stats
}

func (e *ineEngine) Name() string { return "INE" }

// BindStats attributes the engine's Dijkstra settles to s (nil detaches).
func (e *ineEngine) BindStats(s *Stats) { e.stats = s }

func (e *ineEngine) Reset(Q []graph.NodeID) {
	e.targets.Reset()
	e.targets.AddAll(Q)
}

// nearest settles nodes from p until k members of Q have settled — or,
// under a finite tau, until the frontier says they cannot fold to under
// it. Every member still to settle is at least the key r being settled,
// so with f found the k-th is at least r (max) and the sum at least the
// found sum plus (k − f)·r. AggSorted adds those k − f terms one at a
// time, which can round differently from one product, so the sum rule
// must clear tau by roundSlack (past); the max rule compares a key with
// tau and is exact as it stands.
func (e *ineEngine) nearest(p graph.NodeID, k int, agg Aggregate, tau float64) ([]sp.Neighbor, bool) {
	before := e.d.NodesScanned()
	e.buf = e.buf[:0]
	under, found := true, 0.0
	if k > 0 {
		e.d.Run(p, func(v graph.NodeID, r float64) bool {
			if agg == Max && r >= tau || agg == Sum && past(found+float64(k-len(e.buf))*r, tau) {
				under = false
				return false
			}
			if e.targets.Contains(v) {
				e.buf = append(e.buf, sp.Neighbor{Node: v, Dist: r})
				found += r
				return len(e.buf) < k
			}
			return true
		})
	}
	e.stats.CountSettled(e.d.NodesScanned() - before)
	return e.buf, under
}

// NewOracleGPhi returns an engine that evaluates g_φ by computing the
// distance from p to every q ∈ Q through a point-to-point oracle and
// aggregating the k smallest. With an sp.AStar oracle this is the paper's
// "A*" engine; with phl.Index it is "PHL"; with a gtree.Querier it is the
// matrix-assembly SPSP variant.
func NewOracleGPhi(name string, o Oracle) GPhi { return newOracleEngine(name, o) }

// newOracleEngine resolves what o can do — batch, bind its targets —
// once, at construction.
func newOracleEngine(name string, o Oracle) *oracleEngine {
	o, b := batchOf(o)
	tb, _ := o.(boundOracle)
	e := &oracleEngine{name: name, o: o, b: b, tb: tb, hubs: boundHubs}
	if gr, ok := o.(interface{ Graph() *graph.Graph }); ok && tb == nil {
		e.lb.g = withCoords(gr.Graph())
	}
	return e
}

// boundHubs is how many bucket-bearing hubs of L(p) DistBelow walks
// before it asks whether p can still beat the incumbent. A label is
// sorted by hub rank, so these are the hubs most of the graph shares:
// each one's bucket holds nearly all of Q, and between them they bound
// nearly every member. Past them the bounds barely improve while every
// further hub is work a rejected candidate did not need.
// BenchmarkGDAbandon (make microbench) is the evidence — GD through
// Dispatch on NW 1/64, fresh Q per request, µs per query at -cpu 1
// (medians of 5 interleaved runs) and the share of evaluations abandoned,
// re-measured under the tree-weight hub order (labels of 79.5 entries, a
// different four vertices at the head of every walk):
//
//	shape (|P| × M, aggregate)        bare Dist   2 hubs       4 hubs       8 hubs
//	shard4's slice, 211 × 8, max         104     32 (90 %)    36 (96 %)    54 (97 %)
//	shard4's slice, 211 × 8, sum         100     39           43           61
//	gd-phl-max-dense, 169 × 128, max     686    279 (86 %)   337 (98 %)   504 (98 %)
//	the same, sum                        866    406          482          693
//	gd-phl-sum's, 17 × 128, max          131     97 (76 %)   100 (82 %)   127 (82 %)
//	the same, sum                        149    107          125          142
//
// Four is ahead of bare Dist in every cell, in every run, and rejects
// all that eight does. Two no longer falls behind bare Dist at 17 points
// (a full walk is a third shorter, a prefix is not) and reads 3–17 %
// under four; that is a gap the end-to-end pairs would have to confirm
// before the constant follows it.
const boundHubs = 4

type oracleEngine struct {
	name  string
	o     Oracle
	b     BatchOracle // non-nil when o supports one-to-many lookups
	tb    boundOracle // non-nil when o can bind Q once; preferred over b
	bound bool        // tb holds the current Q
	hubs  int         // boundHubs; a field so BenchmarkGDAbandon can vary it
	q     []graph.NodeID
	dbuf  []float64
	lbuf  []float64 // DistBelow: lower bounds beside dbuf
	sbuf  []float64 // nearest: the copy of dbuf that selection permutes
	nbuf  []sp.Neighbor
	lb    euclidQ // the pre-bound of an oracle that cannot bind Q
	stats *Stats
}

func (e *oracleEngine) Name() string { return e.name }

// BindStats attributes the oracle's settles to s when the oracle counts
// them (A* does; hub labels answer from tables and settle nothing).
func (e *oracleEngine) BindStats(s *Stats) { e.stats = s }

// Reset only records Q. A target-binding oracle indexes it on the first
// resolve, not here: a request answered entirely from cached neighbour
// lists resets the engine and never evaluates it, and must not pay a
// bind: it is the first touch of Q's labels and the dearest single step
// of a request that evaluates a handful of points — ≈ 70 µs at |Q| = 128
// in a warm in-process loop (more in a server, where those labels are
// cold), against ≈ 9 µs for each evaluation through it.
func (e *oracleEngine) Reset(Q []graph.NodeID) {
	e.q, e.bound = Q, false
	e.lb.reset(Q)
}

// resolve fills e.dbuf with the distance from p to every member of Q:
// through the bound Q when the oracle can bind one, else in one batched
// lookup when it supports that, else pair by pair. A finite tau asks only
// whether g_φ(p, Q) over the k nearest is under it, and a binding oracle
// then takes the walk in two steps: the bounds its first hubs give may
// already answer no, in which case resolve returns false with e.dbuf
// unfinished.
func (e *oracleEngine) resolve(p graph.NodeID, k int, agg Aggregate, tau float64) bool {
	before := int64(0)
	if e.stats != nil {
		before = scanOf(e.o)
	}
	e.dbuf = growF(e.dbuf, len(e.q))
	under := true
	switch {
	case e.tb != nil:
		if !e.bound {
			e.tb.BindTargets(e.q)
			e.bound = true
		}
		if math.IsInf(tau, 1) {
			e.tb.DistBound(p, e.dbuf)
			break
		}
		e.lbuf = growF(e.lbuf, len(e.q))
		pos := e.tb.DistBoundPrefix(p, e.hubs, e.dbuf, e.lbuf)
		if under = !boundsReach(e.lbuf, k, agg, tau); under {
			e.tb.DistBoundResume(p, pos, e.dbuf)
		}
	case e.b != nil:
		e.b.DistBatch(p, e.q, e.dbuf)
	default:
		for i, q := range e.q {
			e.dbuf[i] = e.o.Dist(p, q)
		}
	}
	if e.stats != nil {
		e.stats.CountSettled(scanOf(e.o) - before)
	}
	return under
}

// boundsReach reports whether lower bounds lb on the distances from a
// point to the members of Q already put its g_φ at tau or above. The
// aggregate of the k nearest is at least the aggregate of the k smallest
// bounds: for max that is the k-th smallest bound, which reaches tau
// exactly when fewer than k bounds are under it — a counting pass, no
// selection; for sum it is their total. lb is rearranged.
func boundsReach(lb []float64, k int, agg Aggregate, tau float64) bool {
	if agg == Max {
		under := 0
		for _, l := range lb {
			if l < tau {
				under++
			}
		}
		return under < k
	}
	return flexAgg(lb, k, Sum) >= tau
}

// nearest orders only what its callers read: it selects the k-th
// smallest resolved distance, collects the reachable members of Q at or
// under it and sorts those — the k-prefix of the full sort (KNearest,
// Subset and the cache's list layer never look past it), without
// ordering the other |Q| − k. Ties at the k-th place go to the lower
// node id, so a list found at k is a prefix of the one found at any
// larger k.
func (e *oracleEngine) nearest(p graph.NodeID, k int) []sp.Neighbor {
	e.resolve(p, k, Max, math.Inf(1))
	kth := math.Inf(1)
	if 0 < k && k < len(e.q) {
		e.sbuf = append(e.sbuf[:0], e.dbuf...)
		partialSelect(e.sbuf, k)
		kth = maxOfFirst(e.sbuf, k)
	}
	e.nbuf = e.nbuf[:0]
	for i, q := range e.q {
		if d := e.dbuf[i]; d <= kth && !math.IsInf(d, 1) {
			e.nbuf = append(e.nbuf, sp.Neighbor{Node: q, Dist: d})
		}
	}
	slices.SortFunc(e.nbuf, cmpNeighborNode)
	return e.nbuf[:min(k, len(e.nbuf))]
}

// Dist folds without building a neighbour list at all; it is DistBelow
// with nothing to stay under.
func (e *oracleEngine) Dist(p graph.NodeID, k int, agg Aggregate) (float64, bool) {
	return e.DistBelow(p, k, agg, math.Inf(1))
}

// DistBelow is the engine's one evaluation body. It is what the search
// loops call for every candidate when no cache wraps the engine, and
// behind qcache.Wrap for a Q the cache sees for the first time; only a Q
// seen before arrives through KNearest, whose list the cache keeps. It
// selects the k smallest distances and, for the sum, orders just that
// prefix, so it adds the same values in the same ascending order as
// AggSorted does and agrees with it bit for bit
// (TestNeighborSearcherContract). An evaluation the bounds end early — a
// binding oracle's hub prefix, or else the Euclidean pre-bound, which
// spares a non-binding oracle all |Q| of its searches — is counted as
// abandoned and reports ok = false, which a caller holding tau as its
// incumbent treats as it would the value: not an improvement.
func (e *oracleEngine) DistBelow(p graph.NodeID, k int, agg Aggregate, tau float64) (float64, bool) {
	if k > len(e.q) {
		return math.Inf(1), false
	}
	if e.lb.rejects(p, k, agg, tau) || !e.resolve(p, k, agg, tau) {
		e.stats.CountAbandoned()
		return math.Inf(1), false
	}
	partialSelect(e.dbuf, k)
	if agg == Sum {
		slices.Sort(e.dbuf[:k])
	}
	d := aggOf(e.dbuf, k, agg)
	return d, !math.IsInf(d, 1)
}

func (e *oracleEngine) Subset(p graph.NodeID, k int, dst []graph.NodeID) []graph.NodeID {
	return SubsetSorted(e.nearest(p, k), k, dst)
}

func (e *oracleEngine) KNearest(p graph.NodeID, k int, dst []sp.Neighbor) []sp.Neighbor {
	return append(dst, e.nearest(p, k)...)
}

// NewGTreeGPhi returns the "GTree" engine: occurrence-list kNN search over
// a prebuilt G-tree (Table I: G-tree + Occ indexes).
func NewGTreeGPhi(t *gtree.Tree) GPhi {
	return newEngine(&gtreeEngine{q: t.NewQuerier(), objs: t.NewObjectSet(nil)}, t.Graph())
}

type gtreeEngine struct {
	q     *gtree.Querier
	objs  *gtree.ObjectSet
	lastQ []graph.NodeID
	buf   []sp.Neighbor
	stats *Stats
}

func (e *gtreeEngine) Name() string { return "GTree" }

// BindStats counts each occurrence-list kNN as one index visit; the
// G-tree querier answers from border matrices and settles no graph nodes.
func (e *gtreeEngine) BindStats(s *Stats) { e.stats = s }

func (e *gtreeEngine) Reset(Q []graph.NodeID) {
	// Rebinding to the same Q is free: the occurrence list only depends on
	// the set, so repeated queries over one Q skip the rebuild entirely. A
	// new Q re-indexes the one ObjectSet in place.
	if slices.Equal(e.lastQ, Q) {
		return
	}
	e.lastQ = append(e.lastQ[:0], Q...)
	e.objs.Reset(Q)
}

// nearest hands tau to the search as its limit: either aggregate of k
// neighbours under tau has all k under tau (distances are not negative),
// so when fewer than k come back the value cannot be under it. The
// limit is compared with the same sums the search forms, so it is exact.
func (e *gtreeEngine) nearest(p graph.NodeID, k int, _ Aggregate, tau float64) ([]sp.Neighbor, bool) {
	e.stats.CountVisit()
	e.buf = e.q.KNNBelow(p, e.objs, k, tau, e.buf[:0])
	return e.buf, len(e.buf) == k || math.IsInf(tau, 1)
}

// NewIERGPhi returns an engine that evaluates g_φ with incremental
// Euclidean restriction over an R-tree built on Q: query points surface in
// Euclidean order, their network distances come from the oracle, and the
// scan stops when the scaled Euclidean lower bound of the next candidate
// cannot improve the k-th best network distance. The graph must carry
// coordinates.
//
// Restriction pays when each network distance is a search of its own (A*)
// or a border-matrix assembly (G-tree). An oracle that binds its
// targets (phl.Index, through the Batcher it mints) answers all of Q in
// one walk over L(p) for less than the R-tree scan alone costs, so over
// such an oracle the IER name gets NewOracleGPhi's neighbour search:
// IER-PHL and PHL are two names for one body and return the same bits.
// The coordinate requirement holds for every IER-* name regardless.
func NewIERGPhi(name string, g *graph.Graph, o Oracle) (GPhi, error) {
	if !g.HasCoords() {
		return nil, fmt.Errorf("fannr: engine %s needs coordinates for Euclidean restriction", name)
	}
	oe := newOracleEngine(name, o)
	if oe.tb != nil {
		return oe, nil
	}
	return newEngine(&ierEngine{
		name: name,
		g:    g,
		o:    oe.o,
		b:    oe.b,
		best: pqueue.NewMaxHeap[graph.NodeID](16),
	}, g), nil
}

type ierEngine struct {
	name  string
	g     *graph.Graph
	o     Oracle
	b     BatchOracle // non-nil when o supports one-to-many lookups
	rt    *rtree.Tree
	it    rtree.IncNN
	best  *pqueue.MaxHeap[graph.NodeID]
	lastQ []graph.NodeID
	pts   []rtree.Point
	tbuf  []graph.NodeID
	dbuf  []float64
	buf   []sp.Neighbor
	stats *Stats
}

func (e *ierEngine) Name() string { return e.name }

// BindStats counts each R-tree candidate surfaced by the incremental
// Euclidean scan as an index visit, and attributes the inner oracle's
// settles when that oracle counts them.
func (e *ierEngine) BindStats(s *Stats) { e.stats = s }

func (e *ierEngine) Reset(Q []graph.NodeID) {
	// Rebinding to the same Q skips the R-tree rebuild — the bulk load is
	// the only per-Reset allocation, so repeated queries over one Q run
	// allocation-free.
	if e.rt != nil && slices.Equal(e.lastQ, Q) {
		return
	}
	e.lastQ = append(e.lastQ[:0], Q...)
	e.pts = e.pts[:0]
	for _, q := range Q {
		x, y := e.g.Coord(q)
		e.pts = append(e.pts, rtree.Point{X: x, Y: y, ID: q})
	}
	e.rt = rtree.BulkLoad(e.pts, rtree.DefaultFanout)
}

// ierChunk bounds how many candidates a batched IER continuation resolves
// per oracle pass. Larger chunks amortize the per-call cost further but
// widen the window in which a mid-chunk incumbent improvement cannot
// prune; 16 keeps the wasted-evaluation bound small against typical k.
const ierChunk = 16

// nearest runs the IER scan, leaving the k nearest query points sorted
// ascending in e.buf. The scan stops where the next Euclidean bound
// reaches the k-th network distance resolved so far, or tau: either
// aggregate of k distances under tau has all k under it, so a member
// past tau cannot be among the k of a value under tau. If the k-th
// resolved is then still past tau the value cannot be under it. The
// bound is held against tau by roundSlack (past), as the k-th is not.
func (e *ierEngine) nearest(p graph.NodeID, k int, _ Aggregate, tau float64) ([]sp.Neighbor, bool) {
	px, py := e.g.Coord(p)
	e.it.Reset(e.rt, px, py)
	e.best.Reset()
	top := topK{k: k, h: e.best} // the k nearest resolved so far
	limit := tau + roundSlack*tau
	before := int64(0)
	if e.stats != nil {
		before = scanOf(e.o)
	}
	if e.b != nil {
		// Batched scan. Seeding first: the initial k surfaced points are
		// evaluated unconditionally either way — the incumbent heap must
		// fill to k before the Euclidean bound can prune — so their
		// network distances resolve in one one-to-many oracle pass. The
		// continuation then drains candidates in chunks: each chunk
		// gathers up to ierChunk points admissible under the incumbent at
		// gather time and resolves them with one more DistBatch from the
		// same source, which the batching substrates answer from memoized
		// per-source state (a resumed Dijkstra frontier, cached G-tree
		// chain vectors, a kept PHL scatter table). A chunk may evaluate
		// candidates a strictly serial scan would have pruned after an
		// incumbent improvement mid-chunk; that is bounded extra work,
		// never a wrong answer — exact extra distances cannot change
		// which k members of Q are nearest.
		e.tbuf = e.tbuf[:0]
		for len(e.tbuf) < k && e.g.ScaleEuclid(e.it.Peek()) < limit {
			pt, _, ok := e.it.Next()
			if !ok {
				break
			}
			e.stats.CountVisit()
			e.tbuf = append(e.tbuf, pt.ID)
		}
		for len(e.tbuf) > 0 {
			e.dbuf = growF(e.dbuf, len(e.tbuf))
			e.b.DistBatch(p, e.tbuf, e.dbuf)
			for i, id := range e.tbuf {
				if nd := e.dbuf[i]; !math.IsInf(nd, 1) {
					top.offer(id, nd)
				}
			}
			e.tbuf = e.tbuf[:0]
			for len(e.tbuf) < ierChunk {
				lb := e.g.ScaleEuclid(e.it.Peek())
				if lb >= min(top.kth(), limit) {
					break
				}
				pt, _, ok := e.it.Next()
				if !ok {
					break
				}
				e.stats.CountVisit()
				e.tbuf = append(e.tbuf, pt.ID)
			}
		}
	} else {
		for {
			lb := e.g.ScaleEuclid(e.it.Peek())
			if lb >= min(top.kth(), limit) {
				break
			}
			pt, _, ok := e.it.Next()
			if !ok {
				break
			}
			e.stats.CountVisit()
			nd := e.o.Dist(p, pt.ID)
			if math.IsInf(nd, 1) {
				continue
			}
			top.offer(pt.ID, nd)
		}
	}
	if e.stats != nil {
		e.stats.CountSettled(scanOf(e.o) - before)
	}
	e.buf = e.buf[:0]
	for _, it := range e.best.Items() {
		e.buf = append(e.buf, sp.Neighbor{Node: it.Value, Dist: it.Key})
	}
	slices.SortFunc(e.buf, cmpNeighborNode)
	return e.buf, top.kth() <= limit
}
