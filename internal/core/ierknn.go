package core

import (
	"math"

	"fannr/internal/graph"
	"fannr/internal/pqueue"
	"fannr/internal/rtree"
)

// BuildPTree indexes the data points of a query in an R-tree so repeated
// IERKNN calls over the same P can share it. P is deduplicated first,
// matching Query.Validate's canonicalization — a duplicated entry would
// otherwise surface twice in best-first order and could occupy two ranks
// of a top-k answer. The graph must carry coordinates.
func BuildPTree(g *graph.Graph, P []graph.NodeID) *rtree.Tree {
	return buildPTree(g, dedupeNodes(P))
}

// buildPTree is BuildPTree over a P already free of duplicates — a
// validated query's, which Dispatch hands it without a second dedup.
func buildPTree(g *graph.Graph, P []graph.NodeID) *rtree.Tree {
	pts := make([]rtree.Point, len(P))
	for i, p := range P {
		x, y := g.Coord(p)
		pts[i] = rtree.Point{X: x, Y: y, ID: p}
	}
	return rtree.BulkLoad(pts, rtree.DefaultFanout)
}

// euclidQ is Q's side of the flexible Euclidean aggregate g^ε_φ of
// Lemma 1: Q's coordinates, read on first use after reset, and the
// scratch the k nearest are selected in. IER-kNN's point bound and the
// engines' pre-bound (rejects) are both point; nothing else computes it.
type euclidQ struct {
	g       *graph.Graph // nil when the graph has no coordinates: no bound
	q       []graph.NodeID
	qx, qy  []float64 // Q's coordinates once read, else empty
	scratch []float64
}

// withCoords returns g when it carries coordinates, else nil.
func withCoords(g *graph.Graph) *graph.Graph {
	if g == nil || !g.HasCoords() {
		return nil
	}
	return g
}

// reset binds Q without reading it: a request served from cached lists
// resets an engine and never asks for a bound.
func (b *euclidQ) reset(Q []graph.NodeID) { b.q, b.qx = Q, b.qx[:0] }

// coords reads Q's coordinates if this binding has not yet.
func (b *euclidQ) coords() {
	if len(b.qx) == len(b.q) {
		return
	}
	b.qx, b.qy, b.scratch = growF(b.qx, len(b.q)), growF(b.qy, len(b.q)), growF(b.scratch, len(b.q))
	for i, v := range b.q {
		b.qx[i], b.qy[i] = b.g.Coord(v)
	}
}

// point is g^ε_φ at (x, y), scaled into an admissible lower bound on the
// network g_φ of any node there.
func (b *euclidQ) point(x, y float64, k int, agg Aggregate) float64 {
	b.coords()
	for i := range b.qx {
		b.scratch[i] = math.Hypot(b.qx[i]-x, b.qy[i]-y)
	}
	return b.g.ScaleEuclid(flexAgg(b.scratch, k, agg))
}

// rejects reports whether p's Euclidean bound already rules out
// g_φ(p, Q) < tau. It is false without coordinates, for tau = +Inf and
// for k past |Q|, where the evaluation has its own answer.
func (b *euclidQ) rejects(p graph.NodeID, k int, agg Aggregate, tau float64) bool {
	if b.g == nil || math.IsInf(tau, 1) || k > len(b.q) {
		return false
	}
	x, y := b.g.Coord(p)
	return past(b.point(x, y, k, agg), tau)
}

// roundSlack is the share of a threshold that a lower bound computed in
// floating point must clear before an evaluation is abandoned on it. A
// bound and the value it bounds are each exact up to a relative error of
// a few units in the last place per term they add up — the edges of a
// shortest path, the k members of a sum, the hypot and the speed scaling
// of a Euclidean bound — so a bound can land above a value it bounds
// exactly, by up to that share. 1e-9 is phl.boundSlack's budget (paths
// of millions of edges); a bound that clears it is a real one.
const roundSlack = 1e-9

// past reports whether lb, a lower bound on a g_φ value computed in
// floating point, rules out that value being under tau (see roundSlack).
func past(lb, tau float64) bool { return lb >= tau+roundSlack*tau }

// ierSearch is the best-first frontier of the IER-kNN framework: the
// query-side geometry the Euclidean bounds are computed from and the
// priority queue of R-tree entries ordered by bound.
type ierSearch struct {
	euclidQ
	k   int
	agg Aggregate
	pq  *pqueue.Heap[ierEntry]
}

type ierEntry struct {
	node  *rtree.Node // nil for point entries
	point graph.NodeID
}

// newIERSearch binds a frontier to a query, reusing the Scratch-held
// state (coordinate buffers, bound scratch, frontier heap) when the query
// carries one so warm IER-kNN runs allocate nothing.
func newIERSearch(g *graph.Graph, rtP *rtree.Tree, q Query) *ierSearch {
	var s *ierSearch
	if q.Scratch != nil {
		if q.Scratch.search == nil {
			q.Scratch.search = &ierSearch{}
		}
		s = q.Scratch.search
	} else {
		s = &ierSearch{}
	}
	s.g = g
	s.reset(q.Q)
	s.coords()
	s.k = q.K()
	s.agg = q.Agg
	if s.pq == nil {
		s.pq = pqueue.NewHeap[ierEntry](64)
	} else {
		s.pq.Reset()
	}
	if rtP.Len() > 0 {
		root := rtP.Root()
		s.pq.Push(s.boundNode(root), ierEntry{node: root})
	}
	return s
}

// boundNode computes the admissible network-distance lower bound for an
// R-tree node: the flexible Euclidean aggregate g^ε_φ(e, Q) of Lemma 1.
func (s *ierSearch) boundNode(n *rtree.Node) float64 {
	r := n.Rect()
	for i := range s.qx {
		s.scratch[i] = r.MinDist(s.qx[i], s.qy[i])
	}
	return s.g.ScaleEuclid(flexAgg(s.scratch, s.k, s.agg))
}

// boundPoint is boundNode for a single data point.
func (s *ierSearch) boundPoint(x, y float64) float64 {
	return s.point(x, y, s.k, s.agg)
}

// IERKNN answers an FANN_R query with the IER-kNN framework (Algorithm 1):
// a best-first scan of the R-tree over P ordered by the flexible Euclidean
// aggregate, evaluating the network g_φ only on surviving data points.
// For the k best answers the scan terminates when the head bound reaches
// the k-th smallest incumbent distance. The graph must carry coordinates.
func IERKNN(g *graph.Graph, rtP *rtree.Tree, gp GPhi, q Query, k int) ([]Answer, error) {
	return solve(g, gp, q, algoIERKNN, k, rtP)
}

// ierknn is IER-kNN's search loop (Algorithm 1): pop R-tree entries in
// bound order, stop as soon as the head bound cannot beat the k-th
// incumbent, expand nodes, and evaluate g_φ on surfaced data points.
func (s *solver) ierknn(rtP *rtree.Tree) error {
	q := &s.q
	f := newIERSearch(s.g, rtP, s.q)
	// Guard against the same data point surfacing twice (an rtP built over
	// a duplicate-containing P): one point must never hold two ranks. A
	// scalar incumbent needs no guard — a repeat never beats itself.
	var seen *graph.NodeSet
	if s.top.k > 1 {
		seen = q.seenSet(s.g.NumNodes())
	}
	for f.pq.Len() > 0 {
		if q.canceled() {
			return ErrCanceled
		}
		head := f.pq.Min()
		if head.Key >= s.top.kth() {
			// Everything still queued is pruned: its Euclidean lower bound
			// already exceeds the incumbent, so no g_φ will ever run on it.
			q.Stats.CountPruned(int64(f.pq.Len()))
			return nil
		}
		f.pq.Pop()
		q.Stats.CountPop()
		e := head.Value
		if e.node == nil {
			if seen != nil {
				if seen.Contains(e.point) {
					continue
				}
				seen.Add(e.point, 0)
			}
			s.eval(e.point)
			continue
		}
		q.Stats.CountVisit()
		if e.node.IsLeaf() {
			for _, p := range e.node.Points() {
				f.pq.Push(f.boundPoint(p.X, p.Y), ierEntry{point: p.ID})
			}
		} else {
			for _, c := range e.node.Children() {
				f.pq.Push(f.boundNode(c), ierEntry{node: c})
			}
		}
	}
	return nil
}
