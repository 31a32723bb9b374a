package core

import "fannr/internal/graph"

// The paper frames two classic queries as special cases of FANN_R
// (§I): the aggregate nearest neighbor query is FANN_R at φ = 1, and the
// optimal meeting point query is FANN_R with P implicit — by Yan et
// al. [5] and Xu & Jacobsen [10], V ∪ Q always contains an optimal
// meeting point, so P = V suffices. These wrappers make the special cases
// first-class.

// ANN answers a classic aggregate nearest neighbor query: the member of P
// minimizing the aggregate distance to all of Q.
func ANN(g *graph.Graph, gp GPhi, P, Q []graph.NodeID, agg Aggregate) (Answer, error) {
	return GD(g, gp, Query{P: P, Q: Q, Phi: 1, Agg: agg})
}

// OMP answers an optimal meeting point query: the network node minimizing
// the aggregate distance to all of Q. The candidate set is every vertex
// (which contains an optimal meeting point); for the max aggregate the
// counter-based Exact-max search avoids enumerating V.
func OMP(g *graph.Graph, gp GPhi, Q []graph.NodeID, agg Aggregate) (Answer, error) {
	return FlexibleOMP(g, gp, Q, 1, agg)
}

// FlexibleOMP generalizes OMP with a flexibility parameter: the network
// node minimizing the aggregate distance to its ⌈φ|Q|⌉ nearest members of
// Q. This is the fully flexible site-selection primitive the paper's
// introduction motivates, over an implicit candidate set.
func FlexibleOMP(g *graph.Graph, gp GPhi, Q []graph.NodeID, phi float64, agg Aggregate) (Answer, error) {
	all := make([]graph.NodeID, g.NumNodes())
	for i := range all {
		all[i] = graph.NodeID(i)
	}
	q := Query{P: all, Q: Q, Phi: phi, Agg: agg}
	if agg == Max {
		return ExactMax(g, gp, q)
	}
	return GD(g, gp, q)
}
