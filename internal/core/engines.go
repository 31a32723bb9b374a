package core

import (
	"cmp"
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
// INE, GTree and IER over a non-binding oracle are one thing: a stream
// that yields the members of Q nearest first (neighborSearch), folded by
// fold, the one place that stops. It ends a stream at the k-th member,
// or once the stream's floor shows that the value cannot come in under
// the incumbent it is compared with (DistBelower), for max and sum
// alike. PHL and IER-PHL resolve all of Q and bound off the first hubs
// of their label walk instead. On a graph with coordinates every engine
// but those two first asks the flexible Euclidean aggregate of Lemma 1
// (euclidQ.rejects), which turns far candidates away before any index or
// graph node is touched.

// DistBelower is the optional engine capability the search loops build
// on: every algorithm uses g_φ(p, Q) for one thing, comparing it with the
// incumbent, so an engine that can tell early that the value will not be
// under the incumbent need not finish computing it. Every built-in
// engine implements it (see the top of this file); the chaos wrapper
// forwards it.
type DistBelower interface {
	// DistBelow returns exactly what Dist returns whenever that value is
	// under tau. Otherwise it may return ok = false without finishing the
	// evaluation, or Dist's result all the same; nothing else. With tau =
	// +Inf it is Dist.
	DistBelow(p graph.NodeID, k int, agg Aggregate, tau float64) (float64, bool)
}

// aggSorted is the fold: it reduces a sorted ascending neighbor list to
// the aggregate of its k-prefix, reporting ok=false when fewer than k
// neighbors exist. Every engine's Dist is this function over its
// neighbour search, or agrees with it bit for bit. The sum runs in
// ascending order; a per-query-point weight would enter here and nowhere
// else.
func aggSorted(nbrs []sp.Neighbor, k int, agg Aggregate) (float64, bool) {
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

// subsetSorted is the projection: it appends the nodes of the k-prefix
// of a sorted ascending neighbor list (all of it when shorter) to dst.
// Every engine's Subset is this function over its neighbour search.
func subsetSorted(nbrs []sp.Neighbor, k int, dst []graph.NodeID) []graph.NodeID {
	for _, nb := range nbrs[:min(k, len(nbrs))] {
		dst = append(dst, nb.Node)
	}
	return dst
}

// neighborSearch is all a built-in engine implements: its binding to Q
// and a nearest-neighbour stream over it. start begins a stream at p;
// next takes one step of it and returns the step's floor — no member of
// Q the stream has not yet yielded is nearer than floor — and either the
// member the step yields, at distance floor, or -1. ok is false once
// every reachable member has been yielded. A floor is compared as it
// stands, so one computed apart from the distances it bounds (IER's
// Euclidean one) comes lowered by roundSlack.
type neighborSearch interface {
	Name() string
	Reset(Q []graph.NodeID)
	BindStats(*Stats)
	start(p graph.NodeID)
	next() (member graph.NodeID, floor float64, ok bool)
}

// fold is the one consumer of a stream: it draws s from p until k
// members have come and appends them, ascending, to dst, with true.
// Under a finite tau it also stops, returning false, once the floor says
// the k cannot fold to under tau: with f found summing to found, the
// k-th is at least the floor (max) and the sum at least found + (k − f)
// · floor. aggSorted adds those k − f terms one at a time, which can
// round differently from one product, so the sum rule must clear tau by
// roundSlack (past); the max rule compares a floor with tau and is exact
// as it stands. Both rules run on every step, so an INE stream is held
// to them on every settle.
func fold(s neighborSearch, p graph.NodeID, k int, agg Aggregate, tau float64, dst []sp.Neighbor) ([]sp.Neighbor, bool) {
	if k <= 0 {
		return dst, true
	}
	s.start(p)
	found, f := 0.0, 0
	for f < k {
		v, floor, ok := s.next()
		if !ok {
			break
		}
		if agg == Max && floor >= tau || agg == Sum && past(found+float64(k-f)*floor, tau) {
			return dst, false
		}
		if v >= 0 {
			dst = append(dst, sp.Neighbor{Node: v, Dist: floor})
			found += floor
			f++
		}
	}
	return dst, true
}

// engine makes a GPhi out of a neighbour search through the fold and the
// projection above, so Dist and Subset agree by construction, and puts
// the Euclidean pre-bound in front of its DistBelow.
type engine struct {
	neighborSearch
	lb    euclidQ
	buf   []sp.Neighbor // the latest fold, reused by the next
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

func (e *engine) nearest(p graph.NodeID, k int, agg Aggregate, tau float64) ([]sp.Neighbor, bool) {
	nbrs, ok := fold(e.neighborSearch, p, k, agg, tau, e.buf[:0])
	e.buf = nbrs
	return nbrs, ok
}

func (e *engine) Dist(p graph.NodeID, k int, agg Aggregate) (float64, bool) {
	return e.DistBelow(p, k, agg, math.Inf(1))
}

// DistBelow asks the Euclidean bound first and the stream's fold second;
// either may end the evaluation, which is then counted as abandoned. A
// fold that runs to the end holds exactly what Dist folds.
// BenchmarkGDAbandon (make microbench) prices both steps — GD through
// Dispatch on NW 1/64, fresh Q per request, µs per query at -cpu 1
// (medians of 5 interleaved runs), and the share of evaluations
// abandoned:
//
//	shape (|P| × M, aggregate)          bare Dist   native exit   + pre-bound
//	GTree, gd-gtree-max's, 17 × 128, max    2 417     1 558 (88 %)    553 (88 %)
//	the same, sum                           2 559     1 717 (88 %)    641 (88 %)
//	INE, rlist-ine-sum's, 169 × 32, max   320 304    14 568 (98 %)  2 648 (98 %)
//	the same, sum                         333 042     8 294 (98 %)  2 001 (98 %)
//
// G-tree's native sum exit is the fold's sum rule; when G-tree bounded
// only the k-th distance it abandoned none (2 522 µs, same runs).
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
	return aggSorted(nbrs, k, agg)
}

func (e *engine) Subset(p graph.NodeID, k int, dst []graph.NodeID) []graph.NodeID {
	nbrs, _ := e.nearest(p, k, Max, math.Inf(1))
	return subsetSorted(nbrs, k, dst)
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

// cmpNeighborNode orders neighbors by ascending distance, then node id: a
// total order on a duplicate-free Q, so the k-prefix is one fixed set
// whatever subset of Q was sorted to find it. (A package-level func, so
// slices.SortFunc does not allocate a closure.)
func cmpNeighborNode(a, b sp.Neighbor) int {
	if c := cmp.Compare(a.Dist, b.Dist); c != 0 {
		return c
	}
	return int(a.Node) - int(b.Node)
}

// NewINE returns the INE engine: a Dijkstra expansion from p, one settle
// per step, yielding the members of Q as they settle.
func NewINE(g *graph.Graph) GPhi {
	return newEngine(&ineEngine{
		d:       sp.NewDijkstra(g),
		targets: graph.NewNodeSet(g.NumNodes()),
	}, g)
}

// ineEngine is the INE stream. It steps d, an sp.Dijkstra over
// graph-sized arrays, for g_φ and APX-sum; it steps lane instead, an
// sp.Expander over sparse labels, when it is one of the |Q| lanes that
// R-List and Exact-max keep live at once. Both are concrete: a call
// through an interface costs INE's g_φ measurably on every settle.
type ineEngine struct {
	d       *sp.Dijkstra
	lane    *sp.Expander
	targets *graph.NodeSet
	stats   *Stats
}

func (e *ineEngine) Name() string { return "INE" }

// BindStats attributes the engine's Dijkstra settles to s (nil detaches).
func (e *ineEngine) BindStats(s *Stats) { e.stats = s }

func (e *ineEngine) Reset(Q []graph.NodeID) {
	e.targets.Reset()
	e.targets.AddAll(Q)
}

func (e *ineEngine) start(p graph.NodeID) {
	if e.lane != nil {
		e.lane.Start(p)
	} else {
		e.d.Start(p)
	}
}

// next settles one node and yields it when it is a target. Its key is
// the frontier minimum, the floor of every target still to settle.
func (e *ineEngine) next() (v graph.NodeID, r float64, ok bool) {
	if e.lane != nil {
		v, r, ok = e.lane.Step()
	} else {
		v, r, ok = e.d.Step()
	}
	if !ok {
		return -1, r, false
	}
	e.stats.CountSettled(1)
	if !e.targets.Contains(v) {
		v = -1
	}
	return v, r, true
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

// heldQ is an engine's copy of the Q it last built per-Q state from — a
// bind, an occurrence list, an R-tree — and the one rule by which every
// engine decides to keep that state.
type heldQ struct {
	ids  []graph.NodeID
	held bool
}

// same reports whether Q is the held set, in the same order. When it is
// not, Q is held from now on and the caller rebuilds from it.
func (h *heldQ) same(Q []graph.NodeID) bool {
	if h.held && slices.Equal(h.ids, Q) {
		return true
	}
	h.ids, h.held = append(h.ids[:0], Q...), true
	return false
}

type oracleEngine struct {
	name  string
	o     Oracle
	b     BatchOracle // non-nil when o supports one-to-many lookups
	tb    boundOracle // non-nil when o can bind Q once; preferred over b
	bound bool        // tb holds the current Q
	hubs  int         // boundHubs; a field so BenchmarkGDAbandon can vary it
	q     heldQ
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

// Reset records Q. A target-binding oracle keeps its bind while Q is the
// set it holds, so a pooled engine handed the same Q again pays the
// selection phase of Buchhold & Wagner (arXiv 2103.10359) once per set.
// A new Q is indexed on the first resolve, not here: a request that ends
// before it evaluates anything (canceled, or lanes that reach no
// candidate) pays no bind. The bind is the first touch of Q's labels and
// the dearest single step of a request that evaluates a handful of
// points — ≈ 36 µs at |Q| = 128 in a warm in-process loop
// (BenchmarkBindTargets; more in a server, where those labels are cold),
// against ≈ 5 µs for each evaluation through it (bench's
// `core.gphi_dist_us.phl` on hot_ier).
func (e *oracleEngine) Reset(Q []graph.NodeID) {
	if !e.q.same(Q) {
		e.bound = false
	}
	e.lb.reset(e.q.ids)
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
	e.dbuf = growF(e.dbuf, len(e.q.ids))
	under := true
	switch {
	case e.tb != nil:
		if !e.bound {
			e.tb.BindTargets(e.q.ids)
			e.bound = true
		}
		if math.IsInf(tau, 1) {
			e.tb.DistBound(p, e.dbuf)
			break
		}
		e.lbuf = growF(e.lbuf, len(e.q.ids))
		pos := e.tb.DistBoundPrefix(p, e.hubs, e.dbuf, e.lbuf)
		if under = !boundsReach(e.lbuf, k, agg, tau); under {
			e.tb.DistBoundResume(p, pos, e.dbuf)
		}
	case e.b != nil:
		e.b.DistBatch(p, e.q.ids, e.dbuf)
	default:
		for i, q := range e.q.ids {
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
// under it and sorts those — the k-prefix of the full sort (Subset never
// looks past it), without ordering the other |Q| − k. Ties at the k-th place go to the lower
// node id, so a list found at k is a prefix of the one found at any
// larger k.
func (e *oracleEngine) nearest(p graph.NodeID, k int) []sp.Neighbor {
	e.resolve(p, k, Max, math.Inf(1))
	kth := math.Inf(1)
	if 0 < k && k < len(e.q.ids) {
		e.sbuf = append(e.sbuf[:0], e.dbuf...)
		partialSelect(e.sbuf, k)
		kth = maxOfFirst(e.sbuf, k)
	}
	e.nbuf = e.nbuf[:0]
	for i, q := range e.q.ids {
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

// DistBelow is the engine's one evaluation body, the one the search
// loops call for every candidate. It selects the k smallest distances
// and, for the sum, orders just that prefix, so it adds the same values
// in the same ascending order as aggSorted over nearest's list and
// agrees with it bit for bit (TestNeighborSearcherContract). An
// evaluation the bounds end early — a binding oracle's hub prefix, or else the Euclidean pre-bound, which
// spares a non-binding oracle all |Q| of its searches — is counted as
// abandoned and reports ok = false, which a caller holding tau as its
// incumbent treats as it would the value: not an improvement.
func (e *oracleEngine) DistBelow(p graph.NodeID, k int, agg Aggregate, tau float64) (float64, bool) {
	if k > len(e.q.ids) {
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
	return subsetSorted(e.nearest(p, k), k, dst)
}

// NewGTreeGPhi returns the "GTree" engine: occurrence-list kNN search over
// a prebuilt G-tree (Table I: G-tree + Occ indexes).
func NewGTreeGPhi(t *gtree.Tree) GPhi {
	return newEngine(&gtreeEngine{q: t.NewQuerier(), objs: t.NewObjectSet(nil)}, t.Graph())
}

type gtreeEngine struct {
	q     *gtree.Querier
	objs  *gtree.ObjectSet
	held  heldQ
	stats *Stats
}

func (e *gtreeEngine) Name() string { return "GTree" }

// BindStats counts each occurrence-list search as one index visit; the
// G-tree querier answers from border matrices and settles no graph nodes.
func (e *gtreeEngine) BindStats(s *Stats) { e.stats = s }

// Reset re-indexes the one ObjectSet in place for a new Q; the
// occurrence list depends on the set alone, so the same Q skips it.
func (e *gtreeEngine) Reset(Q []graph.NodeID) {
	if !e.held.same(Q) {
		e.objs.Reset(Q)
	}
}

func (e *gtreeEngine) start(p graph.NodeID) {
	e.stats.CountVisit()
	e.q.Start(p, e.objs)
}

func (e *gtreeEngine) next() (graph.NodeID, float64, bool) { return e.q.Next() }

// NewIERGPhi returns an engine that evaluates g_φ with incremental
// Euclidean restriction over an R-tree built on Q: query points surface in
// Euclidean order, their network distances come from the oracle, and a
// resolved one is yielded once the scaled Euclidean lower bound of the
// next candidate is not under it. The graph must carry coordinates.
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
		got:  pqueue.NewHeap[graph.NodeID](16),
	}, g), nil
}

type ierEngine struct {
	name  string
	g     *graph.Graph
	o     Oracle
	b     BatchOracle // non-nil when o supports one-to-many lookups
	rt    *rtree.Tree
	it    rtree.IncNN
	p     graph.NodeID
	got   *pqueue.Heap[graph.NodeID] // resolved, not yet yielded
	due   bool                       // the next step resolves first
	held  heldQ
	pts   []rtree.Point
	tgt   [1]graph.NodeID // resolve's DistBatch target
	dst   [1]float64      // and its distance
	stats *Stats
}

func (e *ierEngine) Name() string { return e.name }

// BindStats counts each R-tree candidate surfaced by the incremental
// Euclidean scan as an index visit, and attributes the inner oracle's
// settles when that oracle counts them.
func (e *ierEngine) BindStats(s *Stats) { e.stats = s }

// Reset bulk-loads the R-tree over a new Q. The bulk load is the only
// per-Reset allocation, so the same Q skips it and repeated queries over
// one Q run allocation-free.
func (e *ierEngine) Reset(Q []graph.NodeID) {
	if e.held.same(Q) {
		return
	}
	e.pts = e.pts[:0]
	for _, q := range Q {
		x, y := e.g.Coord(q)
		e.pts = append(e.pts, rtree.Point{X: x, Y: y, ID: q})
	}
	e.rt = rtree.BulkLoad(e.pts, rtree.DefaultFanout)
}

func (e *ierEngine) start(p graph.NodeID) {
	px, py := e.g.Coord(p)
	e.it.Reset(e.rt, px, py)
	e.got.Reset()
	e.p, e.due = p, false
}

// next yields the nearest resolved member once the next Euclidean bound
// is not under it. Otherwise the step's floor is that bound, lowered by
// roundSlack, and the step resolves the next candidate when the next one
// is asked for — so a fold that stops on the floor never pays for it.
func (e *ierEngine) next() (graph.NodeID, float64, bool) {
	if e.due {
		e.resolve()
		e.due = false
	}
	// The scan's end is read off the iterator: on a graph whose edges
	// set no speed, ScaleEuclid(+Inf) is NaN.
	peek := e.it.Peek()
	end := math.IsInf(peek, 1)
	lb := e.g.ScaleEuclid(peek)
	if e.got.Len() > 0 && (end || e.got.Min().Key <= lb) {
		it := e.got.Pop()
		return it.Value, it.Key, true
	}
	if end {
		return -1, peek, false
	}
	e.due = true
	return -1, lb - roundSlack*lb, true
}

// resolve surfaces the next candidate and gets its network distance from
// the oracle: through DistBatch when the oracle batches, as its
// substrates keep per-source state across calls (cached G-tree chain
// vectors, a scattered hub label), so one candidate at a time costs what
// a batch of them would — and a batch would resolve candidates past
// where the fold stops.
func (e *ierEngine) resolve() {
	before := int64(0)
	if e.stats != nil {
		before = scanOf(e.o)
	}
	pt, _, _ := e.it.Next()
	e.stats.CountVisit()
	if e.b != nil {
		e.tgt[0] = pt.ID
		e.b.DistBatch(e.p, e.tgt[:], e.dst[:])
	} else {
		e.dst[0] = e.o.Dist(e.p, pt.ID)
	}
	if !math.IsInf(e.dst[0], 1) {
		e.got.Push(e.dst[0], pt.ID)
	}
	if e.stats != nil {
		e.stats.CountSettled(scanOf(e.o) - before)
	}
}
