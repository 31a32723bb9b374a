package core

import (
	"math"

	"fannr/internal/graph"
	"fannr/internal/pqueue"
	"fannr/internal/sp"
)

// expanderPool is the shared machinery of R-List and Exact-max: one
// resumable Dijkstra per q ∈ Q reporting members of P from near to far,
// plus a meta-heap that always surfaces the lane whose head data point is
// globally nearest (the paper's "switchable" multi-source expansion).
type expanderPool struct {
	lanes []*sp.Expander
	heads []float64 // current head distance per lane (Inf when exhausted)
	meta  *pqueue.Heap[int]
}

func newExpanderPool(g *graph.Graph, P, Q []graph.NodeID) *expanderPool {
	pool := &expanderPool{
		lanes: make([]*sp.Expander, len(Q)),
		heads: make([]float64, len(Q)),
		meta:  pqueue.NewHeap[int](len(Q)),
	}
	pSet := graph.NewNodeSet(g.NumNodes())
	pSet.AddAll(P)
	for i, src := range Q {
		pool.lanes[i] = sp.NewExpander(g, src, pSet)
		if nb, ok := pool.lanes[i].Peek(); ok {
			pool.heads[i] = nb.Dist
			pool.meta.Push(nb.Dist, i)
		} else {
			pool.heads[i] = math.Inf(1)
		}
	}
	return pool
}

// pop removes the globally nearest queue head and returns the data point
// it surfaced. ok is false when every lane is exhausted.
func (pool *expanderPool) pop() (p graph.NodeID, ok bool) {
	for pool.meta.Len() > 0 {
		it := pool.meta.Pop()
		lane := it.Value
		if it.Key != pool.heads[lane] {
			continue // stale entry from an earlier head
		}
		nb, _ := pool.lanes[lane].Next()
		if next, ok2 := pool.lanes[lane].Peek(); ok2 {
			pool.heads[lane] = next.Dist
			pool.meta.Push(next.Dist, lane)
		} else {
			pool.heads[lane] = math.Inf(1)
		}
		return nb.Node, true
	}
	return 0, false
}

// settled sums the nodes settled across every lane — the shortest-path
// work the expansion spent, attributed to Stats by the algorithms.
func (pool *expanderPool) settled() int64 {
	var n int64
	for _, lane := range pool.lanes {
		n += lane.NodesScanned()
	}
	return n
}

// threshold computes the paper's early-termination bound τ: any data point
// not yet surfaced by lane i is at distance ≥ heads[i] from q_i, so its
// flexible aggregate distance is at least the aggregate of the k smallest
// head distances. scratch must have capacity |Q|.
func (pool *expanderPool) threshold(k int, agg Aggregate, scratch []float64) float64 {
	scratch = append(scratch[:0], pool.heads...)
	return flexAgg(scratch, k, agg)
}

// RList answers an FANN_R query with the threshold algorithm of §III-B:
// data points surface from-near-to-far per query point; each new point is
// evaluated with g_φ; the search stops as soon as the incumbent beats the
// bound τ derived from the queue heads.
func RList(g *graph.Graph, gp GPhi, q Query) (Answer, error) {
	return solveOne(g, gp, q, algoRList, nil, IEROptions{})
}

// KRList answers a k-FANN_R query with the R-List adaptation: terminate
// when the threshold τ reaches the kAns-th smallest incumbent distance.
func KRList(g *graph.Graph, gp GPhi, q Query, kAns int) ([]Answer, error) {
	return solve(g, gp, q, algoRList, kAns, false, nil, IEROptions{}, nil)
}

// rlist is R-List's search loop: evaluate each data point the first time
// any lane surfaces it, until τ reaches the k-th incumbent.
func (s *solver) rlist() error {
	q := &s.q
	pool := newExpanderPool(s.g, q.P, q.Q)
	if q.Stats != nil {
		defer func() { q.Stats.CountSettled(pool.settled()) }()
	}
	seen := q.seenSet(s.g.NumNodes())
	scratch := q.distBuf(len(q.Q))
	for {
		if q.canceled() {
			return ErrCanceled
		}
		if s.top.kth() <= pool.threshold(s.k, q.Agg, scratch) {
			return nil
		}
		p, ok := pool.pop()
		if !ok {
			return nil // every lane exhausted
		}
		q.Stats.CountPop()
		if seen.Contains(p) {
			continue
		}
		seen.Add(p, 0)
		q.Stats.CountEval()
		if d, ok := s.gp.Dist(p, s.k, q.Agg); ok {
			s.top.offer(p, d)
		}
	}
}
