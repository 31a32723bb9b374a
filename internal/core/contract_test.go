package core

import (
	"math"
	"math/rand"
	"testing"

	"fannr/internal/graph"
)

// TestNeighborSearcherContract pins what the shard hosts, the breaker
// probe and every algorithm rely on: for every engine, Dist(p,k,agg) is
// bit-identical to the fold (aggSorted) of its k-nearest list, DistBelow
// answers with the same bits whenever it answers, and Subset lists that
// list's nodes in its order — so one query answered twice returns the
// same bits and breaks ties the same way. The seeded (p, k) include
// points that reach fewer than k members of Q.
func TestNeighborSearcherContract(t *testing.T) {
	g, ix, island := islandGraph(t)
	mainland := g.NumNodes() - len(island)
	rng := rand.New(rand.NewSource(12))
	for _, gp := range everyEngine(t, g, ix) {
		below := gp.(DistBelower)
		for trial := 0; trial < 25; trial++ {
			// 20 mainland and 4 island query points; two data points on
			// each side.
			Q := append([]graph.NodeID{}, island[:4]...)
			for _, v := range rng.Perm(mainland)[:20] {
				Q = append(Q, graph.NodeID(v))
			}
			gp.Reset(Q)
			ps := []graph.NodeID{graph.NodeID(rng.Intn(mainland)), graph.NodeID(rng.Intn(mainland)), island[4], island[5]}
			for _, k := range []int{len(Q), 21, 12, 1 + rng.Intn(11), 1} {
				for _, p := range ps {
					nbrs := kNearest(gp, p, k)
					if len(nbrs) > k {
						t.Fatalf("%s: kNearest(%d, k=%d) returned %d neighbors", gp.Name(), p, k, len(nbrs))
					}
					for _, agg := range []Aggregate{Max, Sum} {
						got, gotOK := gp.Dist(p, k, agg)
						want, wantOK := aggSorted(nbrs, k, agg)
						if gotOK != wantOK || math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%s: Dist(%d, k=%d, %v) = (%v, %v), the fold of its list = (%v, %v), diff %g",
								gp.Name(), p, k, agg, got, gotOK, want, wantOK, got-want)
						}
						// Just above the value, at it, well under it.
						for _, tau := range []float64{math.Nextafter(want, math.Inf(1)), want, want / 2} {
							got, gotOK := below.DistBelow(p, k, agg, tau)
							if gotOK && (!wantOK || math.Float64bits(got) != math.Float64bits(want)) {
								t.Fatalf("%s: DistBelow(%d, k=%d, %v, τ=%v) = %v, the fold of its list = (%v, %v)", gp.Name(), p, k, agg, tau, got, want, wantOK)
							}
							if !gotOK && wantOK && want < tau {
								t.Fatalf("%s: DistBelow(%d, k=%d, %v, τ=%v) gave up on %v", gp.Name(), p, k, agg, tau, want)
							}
						}
					}
					sub := gp.Subset(p, k, nil)
					if len(sub) != len(nbrs) {
						t.Fatalf("%s: Subset(%d, k=%d) has %d nodes, its list %d", gp.Name(), p, k, len(sub), len(nbrs))
					}
					for i, nb := range nbrs {
						if sub[i] != nb.Node {
							t.Fatalf("%s: Subset(%d, k=%d)[%d] = %d, its list has %d", gp.Name(), p, k, i, sub[i], nb.Node)
						}
					}
				}
			}
		}
	}
}
