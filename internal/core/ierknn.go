package core

import (
	"math"

	"fannr/internal/graph"
	"fannr/internal/pqueue"
	"fannr/internal/rtree"
)

// IEROptions tunes the IER-kNN framework.
type IEROptions struct {
	// CheapBound replaces the flexible Euclidean aggregate g^ε_φ(e, Q)
	// with the cheaper d(e, Q) bound of §III-C: mdist to the MBR of Q for
	// max, k·mdist for sum. It is looser but costs O(1) instead of O(|Q|)
	// per entry; the paper suggests it for the IER² engines.
	CheapBound bool
}

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

// ierSearch is the best-first frontier of the IER-kNN framework: the
// query-side geometry the Euclidean bounds are computed from and the
// priority queue of R-tree entries ordered by bound.
type ierSearch struct {
	g       *graph.Graph
	qx, qy  []float64 // query point coordinates
	qRect   rtree.Rect
	k       int
	agg     Aggregate
	opts    IEROptions
	scratch []float64
	pq      *pqueue.Heap[ierEntry]
}

type ierEntry struct {
	node  *rtree.Node // nil for point entries
	point graph.NodeID
}

// newIERSearch binds a frontier to a query, reusing the Scratch-held
// state (coordinate buffers, bound scratch, frontier heap) when the query
// carries one so warm IER-kNN runs allocate nothing.
func newIERSearch(g *graph.Graph, rtP *rtree.Tree, q Query, opts IEROptions) *ierSearch {
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
	s.qx = growF(s.qx, len(q.Q))
	s.qy = growF(s.qy, len(q.Q))
	s.scratch = growF(s.scratch, len(q.Q))
	s.qRect = rtree.EmptyRect()
	s.k = q.K()
	s.agg = q.Agg
	s.opts = opts
	if s.pq == nil {
		s.pq = pqueue.NewHeap[ierEntry](64)
	} else {
		s.pq.Reset()
	}
	for i, v := range q.Q {
		x, y := g.Coord(v)
		s.qx[i], s.qy[i] = x, y
		s.qRect = s.qRect.Union(rtree.PointRect(x, y))
	}
	if rtP.Len() > 0 {
		root := rtP.Root()
		s.pq.Push(s.boundNode(root), ierEntry{node: root})
	}
	return s
}

// boundNode computes the admissible network-distance lower bound for an
// R-tree node: either the flexible Euclidean aggregate g^ε_φ(e, Q)
// (Lemma 1) or the cheap d(e, Q) bound.
func (s *ierSearch) boundNode(n *rtree.Node) float64 {
	if s.opts.CheapBound {
		d := s.g.ScaleEuclid(n.Rect().MinDistRect(s.qRect))
		if s.agg == Sum {
			d *= float64(s.k)
		}
		return d
	}
	r := n.Rect()
	for i := range s.qx {
		s.scratch[i] = r.MinDist(s.qx[i], s.qy[i])
	}
	return s.g.ScaleEuclid(flexAgg(s.scratch, s.k, s.agg))
}

// boundPoint is boundNode for a single data point.
func (s *ierSearch) boundPoint(x, y float64) float64 {
	if s.opts.CheapBound {
		d := s.g.ScaleEuclid(s.qRect.MinDist(x, y))
		if s.agg == Sum {
			d *= float64(s.k)
		}
		return d
	}
	for i := range s.qx {
		s.scratch[i] = math.Hypot(s.qx[i]-x, s.qy[i]-y)
	}
	return s.g.ScaleEuclid(flexAgg(s.scratch, s.k, s.agg))
}

// IERKNN answers an FANN_R query with the IER-kNN framework (Algorithm 1):
// a best-first scan of the R-tree over P ordered by the flexible Euclidean
// aggregate, evaluating the network g_φ only on surviving data points. The
// graph must carry coordinates.
func IERKNN(g *graph.Graph, rtP *rtree.Tree, gp GPhi, q Query, opts IEROptions) (Answer, error) {
	return solveOne(g, gp, q, algoIERKNN, rtP, opts)
}

// KIERKNN answers a k-FANN_R query with the IER-kNN adaptation: the
// best-first scan terminates when the head bound reaches the kAns-th
// smallest incumbent distance.
func KIERKNN(g *graph.Graph, rtP *rtree.Tree, gp GPhi, q Query, kAns int, opts IEROptions) ([]Answer, error) {
	return solve(g, gp, q, algoIERKNN, kAns, false, rtP, opts, nil)
}

// ierknn is IER-kNN's search loop (Algorithm 1): pop R-tree entries in
// bound order, stop as soon as the head bound cannot beat the k-th
// incumbent, expand nodes, and evaluate g_φ on surfaced data points.
func (s *solver) ierknn(rtP *rtree.Tree, opts IEROptions) error {
	q := &s.q
	f := newIERSearch(s.g, rtP, s.q, opts)
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
