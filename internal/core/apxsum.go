package core

import (
	"fannr/internal/graph"
	"fannr/internal/sp"
)

// APXSum answers a sum-FANN_R query with Algorithm 3 of the paper: the
// candidate set is reduced to the network nearest neighbor in P of each
// q ∈ Q (found index-free by expansion from q), and an exact FANN_R scan
// runs over those ≤ |Q| candidates. Theorem 1 guarantees the result is a
// 3-approximation; Theorem 2 tightens it to 2 when Q ⊆ P. In the paper's
// experiments the observed ratio never exceeds 1.2.
func APXSum(g *graph.Graph, gp GPhi, q Query) (Answer, error) {
	return solveOne(g, gp, q, algoAPXSum, nil)
}

// KAPXSum extends APX-sum to k-FANN_R queries. The paper notes (§V) that
// all algorithms except APX-sum adapt to top-k; this is the natural
// extension beyond the paper: for kAns > 1 collect the nearest AND
// second-nearest data point of every query point as candidates (so the
// candidate pool cannot collapse below k when query points share nearest
// neighbors), then rank the pool exactly.
//
// The answers are exact over the candidate pool. The rank-1 answer
// retains APX-sum's 3-approximation guarantee (the Theorem 1 candidate is
// in the pool); deeper ranks are heuristic — there is no proven bound,
// which is why the paper stopped at k = 1. Results may contain fewer than
// kAns entries when the pool is smaller.
func KAPXSum(g *graph.Graph, gp GPhi, q Query, kAns int) ([]Answer, error) {
	return solve(g, gp, q, algoAPXSum, kAns, false, nil, nil)
}

// apxCandidates is APX-sum's reduction: the per network-nearest data
// points of every q ∈ Q, each listed once. The GD loop ranks them. The
// |Q| expansions run strictly one after another, so they share one
// graph-sized Dijkstra (held in the Scratch) instead of running an
// sp.Expander lane each — those, with their sparse label tables, are for
// R-List and Exact-max, which keep all |Q| expansions live at once.
func apxCandidates(g *graph.Graph, q *Query, per int) ([]graph.NodeID, error) {
	pSet := q.countSet(g.NumNodes())
	pSet.AddAll(q.P)
	seen := q.seenSet(g.NumNodes())
	d := q.dijkstra(g)
	candidates := make([]graph.NodeID, 0, per*len(q.Q))
	var near [2]sp.Neighbor // per ≤ 2
	for _, src := range q.Q {
		if q.canceled() {
			return nil, ErrCanceled
		}
		before := d.NodesScanned()
		for _, nb := range d.KNNAmong(src, pSet, per, near[:0]) {
			if !seen.Contains(nb.Node) {
				seen.Add(nb.Node, 0)
				candidates = append(candidates, nb.Node)
			}
		}
		q.Stats.CountSettled(d.NodesScanned() - before)
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
