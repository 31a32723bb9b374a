package core

import "fannr/internal/graph"

// ExactMax answers a max-FANN_R query with Algorithm 2 of the paper: the
// switchable multi-source expansion pops the globally nearest (q, p) pair
// and counts how many query points have surfaced each data point; the
// first p whose counter reaches k = ⌈φ|Q|⌉ is exactly p*, because queue
// heads surface in globally nondecreasing distance order. The expensive
// g_φ runs only once, on the winner — which is why the engine choice
// barely matters for this algorithm (Table V). That one evaluation has
// no incumbent to stay under (τ = +Inf), so no engine's early exit
// applies to it either.
//
// For the k best answers the expansion continues until k distinct
// counters reach ⌈φ|Q|⌉; the saturation order is exactly ascending
// flexible max distance.
//
// The aggregate must be Max: the §IV-A counter-example (reproduced in the
// tests) shows the counting argument is unsound for Sum.
func ExactMax(g *graph.Graph, gp GPhi, q Query, k int) ([]Answer, error) {
	return solve(g, gp, q, algoExactMax, k, nil)
}

// exactMax is Exact-max's search loop: pop (q, p) pairs in global distance
// order and evaluate g_φ only on the points whose counter saturates,
// until the queue holds one winner per requested answer.
func (s *solver) exactMax() error {
	q := &s.q
	n := s.g.NumNodes()
	pool := q.expanders(s.g, emptySet(&q.Scratch.seen, n))
	counts := emptySet(&q.Scratch.counts, n)
	for s.top.len() < s.top.k {
		if q.canceled() {
			return ErrCanceled
		}
		p, ok := pool.pop()
		if !ok {
			break
		}
		q.Stats.CountPop()
		c, _ := counts.Value(p)
		counts.Add(p, c+1)
		if int(c)+1 != s.k {
			continue
		}
		s.eval(p)
	}
	return nil
}
