package core

import (
	"math"

	"fannr/internal/graph"
	"fannr/internal/pqueue"
	"fannr/internal/sp"
)

// expanderPool is the shared machinery of R-List and Exact-max: one INE
// stream per q ∈ Q over an sp.Expander lane, all bound to one shared set
// of P, plus a meta-heap that always surfaces the lane whose head — its
// nearest data point not yet popped, drawn one ahead — is globally
// nearest (the paper's "switchable" multi-source expansion). A Scratch
// keeps one and re-arms it per request: the lanes with their label
// tables and frontiers, heads and the meta-heap are all reused. A lane
// gives up an outsized table when it is next started
// (sp.Expander.Start), so the pool holds at most one small table per
// lane it arms; a lane left idle by a smaller Q keeps what it last held
// until then.
type expanderPool struct {
	all   []*sp.Expander // every lane minted so far; lanes streams its prefix
	lanes []ineEngine    // one per member of the armed Q
	heads []sp.Neighbor  // each lane's head (Dist +Inf when exhausted)
	meta  *pqueue.Heap[int]
}

// expanders returns the Scratch's lane pool armed for q: one lane per
// member of Q streaming the members of P.
// pSet is an empty graph-sized set the pool fills with P and reads until
// the search ends; the caller picks one its own loop does not use.
func (q *Query) expanders(g *graph.Graph, pSet *graph.NodeSet) *expanderPool {
	pool := &q.Scratch.lanes
	if pool.meta == nil {
		pool.meta = pqueue.NewHeap[int](len(q.Q))
	}
	pool.meta.Reset()
	pSet.AddAll(q.P)
	for len(pool.all) < len(q.Q) {
		pool.all = append(pool.all, new(sp.Expander))
	}
	if cap(pool.lanes) < len(q.Q) {
		pool.lanes = make([]ineEngine, len(q.Q))
		pool.heads = make([]sp.Neighbor, len(q.Q))
	}
	pool.lanes, pool.heads = pool.lanes[:len(q.Q)], pool.heads[:len(q.Q)]
	for i, src := range q.Q {
		pool.all[i].Reset(g)
		pool.lanes[i] = ineEngine{lane: pool.all[i], targets: pSet, stats: q.Stats}
		pool.lanes[i].start(src)
		pool.draw(i)
	}
	return pool
}

// draw steps lane i until its next member of P comes, which becomes the
// lane's head, and queues the lane by it.
func (pool *expanderPool) draw(i int) {
	lane := &pool.lanes[i]
	for {
		v, dist, ok := lane.next()
		if !ok {
			pool.heads[i] = sp.Neighbor{Node: -1, Dist: math.Inf(1)}
			return
		}
		if v >= 0 {
			pool.heads[i] = sp.Neighbor{Node: v, Dist: dist}
			pool.meta.Push(dist, i)
			return
		}
	}
}

// pop removes the globally nearest head and returns the data point it
// surfaced, drawing its lane's next. ok is false when every lane is
// exhausted.
func (pool *expanderPool) pop() (p graph.NodeID, ok bool) {
	if pool.meta.Len() == 0 {
		return 0, false
	}
	lane := pool.meta.Pop().Value // a lane is queued once, by its head
	p = pool.heads[lane].Node
	pool.draw(lane)
	return p, true
}

// threshold computes the paper's early-termination bound τ: any data point
// not yet surfaced by lane i is at distance ≥ heads[i] from q_i, so its
// flexible aggregate distance is at least the aggregate of the k smallest
// head distances. scratch must have capacity |Q|.
func (pool *expanderPool) threshold(k int, agg Aggregate, scratch []float64) float64 {
	scratch = scratch[:0]
	for _, h := range pool.heads {
		scratch = append(scratch, h.Dist)
	}
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
	pool := q.expanders(s.g, emptySet(&q.Scratch.counts, n))
	seen := emptySet(&q.Scratch.seen, n)
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
