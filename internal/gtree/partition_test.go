package gtree

import (
	"math"
	"math/rand"
	"testing"

	"fannr/internal/graph"
	"fannr/internal/sp"
)

// Partition refinement's yield, pinned: on this network the FM pass after
// each bisection brings the tree to 1 659 borders and 201 789 matrix cells
// (1 961 and 270 831 with plain geometric bisection), and queries stay
// exact.
func TestPartitionRefinementReducesBorders(t *testing.T) {
	g := roadNetwork(t, 3000, 110)
	tr, err := Build(g, Options{MaxLeafSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	if st := tr.Stats(); st.Borders != 1659 || st.MatrixCells != 201789 {
		t.Fatalf("borders %d, matrix cells %d; want 1659, 201789", st.Borders, st.MatrixCells)
	}
	d := sp.NewDijkstra(g)
	q := tr.NewQuerier()
	rng := rand.New(rand.NewSource(111))
	for i := 0; i < 150; i++ {
		u := graph.NodeID(rng.Intn(g.NumNodes()))
		v := graph.NodeID(rng.Intn(g.NumNodes()))
		want := d.Dist(u, v)
		if got := q.Dist(u, v); math.Abs(got-want) > 1e-6 {
			t.Fatalf("Dist(%d,%d) = %v, want %v", u, v, got, want)
		}
	}
}

// Refinement must keep every vertex in exactly one leaf.
func TestPartitionRefinementPreservesCoverage(t *testing.T) {
	g := roadNetwork(t, 1500, 112)
	tr, err := Build(g, Options{MaxLeafSize: 48})
	if err != nil {
		t.Fatal(err)
	}
	counted := 0
	for i := range tr.nodes {
		n := &tr.nodes[i]
		if !n.isLeaf() {
			continue
		}
		counted += len(n.verts)
		if len(n.verts) == 0 {
			t.Fatal("empty leaf after refinement")
		}
		for _, v := range n.verts {
			if tr.leafOf[v] != int32(i) {
				t.Fatalf("vertex %d leafOf mismatch", v)
			}
		}
	}
	if counted != g.NumNodes() {
		t.Fatalf("leaves cover %d vertices, want %d", counted, g.NumNodes())
	}
	// Balance: no leaf exceeds the size bound.
	for i := range tr.nodes {
		if n := &tr.nodes[i]; n.isLeaf() && len(n.verts) > 48 {
			t.Fatalf("leaf %d oversize: %d", i, len(n.verts))
		}
	}
}
