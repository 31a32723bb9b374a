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
// globally nearest (the paper's "switchable" multi-source expansion). A
// Scratch keeps one and re-arms it per request: the lanes with their
// label tables and frontiers, heads and the meta-heap are all reused. A
// lane gives up an outsized table when it is next armed (sp.Expander.Reset),
// so the pool holds at most one small table per lane it arms; a lane
// left idle by a smaller Q keeps what it last held until then.
type expanderPool struct {
	all   []*sp.Expander // every lane minted so far; lanes is its prefix
	lanes []*sp.Expander // one per member of the armed Q
	heads []float64      // current head distance per lane (Inf when exhausted)
	meta  *pqueue.Heap[int]
}

// expanders returns the lane pool armed for q: one lane per member of Q
// reporting the members of P, from the Scratch when the query has one.
// pSet is an empty graph-sized set the pool fills with P and reads until
// the search ends; the caller picks one its own loop does not use.
func (q *Query) expanders(g *graph.Graph, pSet *graph.NodeSet) *expanderPool {
	var pool *expanderPool
	if q.Scratch != nil {
		pool = &q.Scratch.lanes
	} else {
		pool = &expanderPool{}
	}
	if pool.meta == nil {
		pool.meta = pqueue.NewHeap[int](len(q.Q))
	}
	pool.meta.Reset()
	pSet.AddAll(q.P)
	for len(pool.all) < len(q.Q) {
		pool.all = append(pool.all, new(sp.Expander))
	}
	pool.lanes = pool.all[:len(q.Q)]
	pool.heads = growF(pool.heads, len(q.Q))
	for i, src := range q.Q {
		pool.lanes[i].Reset(g, src, pSet)
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
// bound τ derived from the queue heads. For the k best answers the
// search stops when τ reaches the k-th smallest incumbent distance.
func RList(g *graph.Graph, gp GPhi, q Query, k int) ([]Answer, error) {
	return solve(g, gp, q, algoRList, k, nil)
}

// rlist is R-List's search loop: evaluate each data point the first time
// any lane surfaces it, until τ reaches the k-th incumbent.
func (s *solver) rlist() error {
	q := &s.q
	n := s.g.NumNodes()
	pool := q.expanders(s.g, q.countSet(n))
	if q.Stats != nil {
		defer func() { q.Stats.CountSettled(pool.settled()) }()
	}
	seen := q.seenSet(n)
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
		s.eval(p)
	}
}
