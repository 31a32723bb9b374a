package core

import (
	"math"

	"fannr/internal/graph"
	"fannr/internal/sp"
)

// APXSum answers a sum-FANN_R query with Algorithm 3 of the paper: the
// candidate set is reduced to the network nearest neighbor in P of each
// q ∈ Q (found index-free by expansion from q), and an exact FANN_R scan
// runs over those ≤ |Q| candidates. Theorem 1 guarantees the result is a
// 3-approximation; Theorem 2 tightens it to 2 when Q ⊆ P. In the paper's
// experiments the observed ratio never exceeds 1.2.
//
// k > 1 goes beyond the paper, which notes (§V) that every algorithm but
// APX-sum adapts to top-k: the candidates are then the nearest AND
// second-nearest data point of every query point (so the pool cannot
// collapse below k when query points share nearest neighbors), ranked
// exactly. The rank-1 answer retains the 3-approximation guarantee (the
// Theorem 1 candidate is in the pool); deeper ranks are heuristic — there
// is no proven bound, which is why the paper stopped at k = 1. Results
// may hold fewer than k answers when the pool is smaller.
func APXSum(g *graph.Graph, gp GPhi, q Query, k int) ([]Answer, error) {
	return solve(g, gp, q, algoAPXSum, k, nil)
}

// apxCandidates is APX-sum's reduction: the per network-nearest data
// points of every q ∈ Q, each listed once. The GD loop ranks them. They
// come from the INE stream over P, one q after another, so the |Q|
// expansions share one graph-sized Dijkstra (held in the Scratch)
// instead of running an sp.Expander lane each — those, with their sparse
// label tables, are for R-List and Exact-max, which keep all |Q|
// expansions live at once.
func apxCandidates(g *graph.Graph, q *Query, per int) ([]graph.NodeID, error) {
	pSet := q.countSet(g.NumNodes())
	pSet.AddAll(q.P)
	seen := q.seenSet(g.NumNodes())
	ine := &ineEngine{d: q.dijkstra(g), targets: pSet, stats: q.Stats}
	candidates := make([]graph.NodeID, 0, per*len(q.Q))
	var near [2]sp.Neighbor // per ≤ 2
	for _, src := range q.Q {
		if q.canceled() {
			return nil, ErrCanceled
		}
		nbrs, _ := fold(ine, src, per, Max, math.Inf(1), near[:0])
		for _, nb := range nbrs {
			if !seen.Contains(nb.Node) {
				seen.Add(nb.Node, 0)
				candidates = append(candidates, nb.Node)
			}
		}
	}
	if len(candidates) == 0 {
		return nil, ErrNoResult
	}
	return candidates, nil
}

// APXSumRatioBound returns the proven worst-case approximation ratio for a
// query: 2 when Q ⊆ P (Theorem 2), 3 otherwise (Theorem 1).
func APXSumRatioBound(q Query) float64 {
	inP := make(map[graph.NodeID]bool, len(q.P))
	for _, p := range q.P {
		inP[p] = true
	}
	for _, v := range q.Q {
		if !inP[v] {
			return 3
		}
	}
	return 2
}
