package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"fannr/internal/graph"
	"fannr/internal/phl"
	"fannr/internal/sp"
)

// unitGrid is a side×side grid of unit-weight edges plus a 5-node chain
// nothing connects to it: almost every distance from a point is shared
// by several others, so ties sit at the k-th place for most (p, k), and
// a Q that straddles both parts has unreachable members.
func unitGrid(t *testing.T, side int) *graph.Graph {
	t.Helper()
	n := side * side
	b := graph.NewBuilder(n + 5)
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			v := graph.NodeID(r*side + c)
			if c+1 < side {
				_ = b.AddEdge(v, v+1, 1)
			}
			if r+1 < side {
				_ = b.AddEdge(v, v+graph.NodeID(side), 1)
			}
		}
	}
	for i := 1; i < 5; i++ {
		_ = b.AddEdge(graph.NodeID(n+i-1), graph.NodeID(n+i), 1)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestOracleNearestIsPrefixOfFullSort pins the k-prefix neighbour search
// of the oracle engines, on the bound path (PHL) and the batched one
// (Dijkstra): for random (p, Q) and k from 1 past |Q|, the list is
// ascending, holds min(k, reachable) members of Q, carries exactly the k
// smallest distances of a full sort, bit for bit, names each node with
// its own distance, and is a prefix of the list at every larger k.
func TestOracleNearestIsPrefixOfFullSort(t *testing.T) {
	g := unitGrid(t, 12)
	ix, err := phl.Build(g, phl.Options{})
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumNodes()
	for _, gp := range []GPhi{NewOracleGPhi("PHL", ix), NewOracleGPhi("Dijkstra", sp.NewDijkstra(g))} {
		rng := rand.New(rand.NewSource(5))
		ns := gp.(NeighborSearcher)
		for trial := 0; trial < 40; trial++ {
			m := 1 + rng.Intn(40)
			Q := make([]graph.NodeID, 0, m)
			for _, v := range rng.Perm(n)[:m] {
				Q = append(Q, graph.NodeID(v))
			}
			gp.Reset(Q)
			p := graph.NodeID(rng.Intn(n))
			var full []float64
			for _, q := range Q {
				if d := ix.Dist(p, q); !math.IsInf(d, 1) {
					full = append(full, d)
				}
			}
			slices.Sort(full)
			all := ns.KNearest(p, m, nil)
			ks := []int{1, (m + 9) / 10, (m + 3) / 4, (m + 1) / 2, m - 1, m, m + 3}
			for _, k := range ks {
				if k < 1 {
					continue
				}
				got := ns.KNearest(p, k, nil)
				if len(got) != min(k, len(full)) {
					t.Fatalf("%s trial %d: KNearest(%d, k=%d) has %d entries, want min(k, %d reachable)", gp.Name(), trial, p, k, len(got), len(full))
				}
				for i, nb := range got {
					if math.Float64bits(nb.Dist) != math.Float64bits(full[i]) {
						t.Fatalf("%s trial %d: KNearest(%d, k=%d)[%d].Dist = %v, full sort has %v", gp.Name(), trial, p, k, i, nb.Dist, full[i])
					}
					if d := ix.Dist(p, nb.Node); d != nb.Dist || !slices.Contains(Q, nb.Node) {
						t.Fatalf("%s trial %d: KNearest(%d, k=%d)[%d] = %v, but d(p, node) = %v", gp.Name(), trial, p, k, i, nb, d)
					}
					if nb != all[i] {
						t.Fatalf("%s trial %d: KNearest(%d, k=%d)[%d] = %v is not the prefix of k=%d, which has %v", gp.Name(), trial, p, k, i, nb, m, all[i])
					}
				}
			}
		}
	}
}
