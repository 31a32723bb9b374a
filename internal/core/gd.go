package core

import "fannr/internal/graph"

// GD answers an FANN_R query with the generalized Dijkstra-based algorithm
// of §III-A: evaluate g_φ(p, Q) for every p ∈ P and keep the minimum. The
// paper calls the INE instantiation "Baseline" and the family "GD"; any
// engine plugs in.
func GD(g *graph.Graph, gp GPhi, q Query) (Answer, error) {
	return solveOne(g, gp, q, algoGD, nil)
}

// KGD answers a k-FANN_R query by enumerating P and keeping the kAns best
// (§V: "update the queue when enumerating the P").
func KGD(g *graph.Graph, gp GPhi, q Query, kAns int) ([]Answer, error) {
	return solve(g, gp, q, algoGD, kAns, false, nil, nil)
}

// scanAll is GD's search loop: every data point is a candidate. It still
// calls eval |P| times — GPhiEvals is what the paper counts — but from
// the first incumbent on, an engine with DistBelow spends a full
// evaluation only on the few points near Q and a four-hub prefix on the
// rest (GPhiAbandoned).
func (s *solver) scanAll() error {
	for _, p := range s.q.P {
		if s.q.canceled() {
			return ErrCanceled
		}
		s.eval(p)
	}
	return nil
}
