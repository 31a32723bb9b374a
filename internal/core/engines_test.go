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
// a Q that straddles both parts has unreachable members. Nodes sit at
// their lattice coordinates, the chain on a row of its own.
func unitGrid(t *testing.T, side int) *graph.Graph {
	t.Helper()
	n := side * side
	b := graph.NewBuilder(n + 5)
	x, y := make([]float64, n+5), make([]float64, n+5)
	for v := range x {
		x[v], y[v] = float64(v%side), float64(v/side)
	}
	if err := b.SetCoords(x, y); err != nil {
		t.Fatal(err)
	}
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
// of the oracle engines, on the bound path (PHL, and IER-PHL, which is
// the same body) and the batched one (Dijkstra): for random (p, Q) and k
// from 1 past |Q|, the list is ascending, holds min(k, reachable) members
// of Q, carries exactly the k smallest distances of a full sort, bit for
// bit, names each node with its own distance, and is a prefix of the list
// at every larger k.
func TestOracleNearestIsPrefixOfFullSort(t *testing.T) {
	g := unitGrid(t, 12)
	ix, err := phl.Build(g, phl.Options{})
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumNodes()
	ierPHL, err := NewIERGPhi("IER-PHL", g, ix)
	if err != nil {
		t.Fatal(err)
	}
	for _, gp := range []GPhi{NewOracleGPhi("PHL", ix), ierPHL, NewOracleGPhi("Dijkstra", sp.NewDijkstra(g))} {
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

// islandGraph is a generated coordinate graph plus a six-node chain that
// nothing connects to it, laid out beside the bounding box at the
// mainland's own scale; it returns the graph, a PHL index over it and the
// chain's node ids.
func islandGraph(t *testing.T) (*graph.Graph, *phl.Index, []graph.NodeID) {
	t.Helper()
	base, err := graph.Generate(graph.GenConfig{Nodes: 400, Seed: 21, Name: "mainland"})
	if err != nil {
		t.Fatal(err)
	}
	n := base.NumNodes()
	const chain = 6
	x, y := make([]float64, n+chain), make([]float64, n+chain)
	for v := 0; v < n; v++ {
		x[v], y[v] = base.Coord(graph.NodeID(v))
	}
	edges := base.Edges(nil)
	_, minY, maxX, _ := base.BoundingBox()
	step := base.Euclid(edges[0].U, edges[0].V)
	island := make([]graph.NodeID, chain)
	for i := range island {
		island[i] = graph.NodeID(n + i)
		x[n+i], y[n+i] = maxX+step, minY+float64(i)*step
	}
	b := graph.NewBuilder(n + chain)
	if err := b.SetCoords(x, y); err != nil {
		t.Fatal(err)
	}
	for _, e := range edges {
		_ = b.AddEdge(e.U, e.V, e.W)
	}
	for i := 1; i < chain; i++ {
		_ = b.AddEdge(island[i-1], island[i], edges[0].W)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ix, err := phl.Build(g, phl.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return g, ix, island
}

// TestIERPHLSharesPHLBody pins what IER-PHL is once the oracle binds Q:
// KNearest, Dist and Subset agree bit for bit with the PHL engine over
// the same index, and carry the same distances as the Euclidean
// restriction the name used to run (the same index with its binding
// hidden) — for k = 1, ⌈φM⌉, M and M+1, both aggregates, data points on
// the mainland, on the island (most of Q unreachable, so k past the
// reachable count reports ok=false) and inside Q.
func TestIERPHLSharesPHLBody(t *testing.T) {
	g, ix, island := islandGraph(t)
	ierPHL, err := NewIERGPhi("IER-PHL", g, ix)
	if err != nil {
		t.Fatal(err)
	}
	restricted, err := NewIERGPhi("IER-PHL", g, restrictOnly{ix.NewBatcher()})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ierPHL.(*oracleEngine); !ok {
		t.Fatalf("IER-PHL over phl.Index is a %T, want the oracle engine", ierPHL)
	}
	if _, ok := restricted.(*engine); !ok {
		t.Fatalf("IER-PHL over a non-binding oracle is a %T, want the restriction engine", restricted)
	}
	pl := NewOracleGPhi("PHL", ix)
	mainland := g.NumNodes() - len(island)
	rng := rand.New(rand.NewSource(21))
	sawUnreachable := false
	for trial := 0; trial < 30; trial++ {
		m := 8 + rng.Intn(40)
		Q := append([]graph.NodeID{}, island[:3]...)
		for _, v := range rng.Perm(mainland)[:m-3] {
			Q = append(Q, graph.NodeID(v))
		}
		for _, gp := range []GPhi{ierPHL, restricted, pl} {
			gp.Reset(Q)
		}
		ps := []graph.NodeID{graph.NodeID(rng.Intn(mainland)), island[4], Q[3+rng.Intn(m-3)], island[1]}
		for _, k := range []int{1, (m + 1) / 2, m, m + 1} {
			for _, p := range ps {
				want := pl.(NeighborSearcher).KNearest(p, k, nil)
				if got := ierPHL.(NeighborSearcher).KNearest(p, k, nil); !slices.Equal(got, want) {
					t.Fatalf("trial %d: IER-PHL KNearest(%d, k=%d) = %v, PHL has %v", trial, p, k, got, want)
				}
				if got, sub := ierPHL.Subset(p, k, nil), pl.Subset(p, k, nil); !slices.Equal(got, sub) {
					t.Fatalf("trial %d: IER-PHL Subset(%d, k=%d) = %v, PHL has %v", trial, p, k, got, sub)
				}
				old := restricted.(NeighborSearcher).KNearest(p, k, nil)
				if len(old) != len(want) {
					t.Fatalf("trial %d: restriction KNearest(%d, k=%d) has %d neighbours, bound path %d", trial, p, k, len(old), len(want))
				}
				for i := range want {
					if math.Float64bits(old[i].Dist) != math.Float64bits(want[i].Dist) {
						t.Fatalf("trial %d: restriction KNearest(%d, k=%d)[%d].Dist = %v, bound path %v", trial, p, k, i, old[i].Dist, want[i].Dist)
					}
				}
				for _, agg := range []Aggregate{Max, Sum} {
					wantD, wantOK := pl.Dist(p, k, agg)
					sawUnreachable = sawUnreachable || !wantOK
					if wantOK != (k <= len(want)) {
						t.Fatalf("trial %d: PHL Dist(%d, k=%d) ok=%v with %d of Q reachable", trial, p, k, wantOK, len(want))
					}
					for _, gp := range []GPhi{ierPHL, restricted} {
						if d, ok := gp.Dist(p, k, agg); ok != wantOK || math.Float64bits(d) != math.Float64bits(wantD) {
							t.Fatalf("trial %d: %T Dist(%d, k=%d, %v) = (%v, %v), PHL has (%v, %v)", trial, gp, p, k, agg, d, ok, wantD, wantOK)
						}
					}
				}
			}
		}
	}
	if !sawUnreachable {
		t.Fatal("no (p, k) asked for more of Q than p can reach: the island is not doing its job")
	}
}

// TestIERNeedsCoordsWhateverTheOracle: the IER-* names keep their
// coordinate requirement even over an oracle that would never consult a
// coordinate, so the engine list a dataset serves does not depend on
// which body a name resolves to.
func TestIERNeedsCoordsWhateverTheOracle(t *testing.T) {
	b := graph.NewBuilder(3)
	_ = b.AddEdge(0, 1, 1)
	_ = b.AddEdge(1, 2, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ix, err := phl.Build(g, phl.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if gp, err := NewIERGPhi("IER-PHL", g, ix); err == nil {
		t.Fatalf("IER-PHL on a graph without coordinates built a %T, want an error", gp)
	}
}
