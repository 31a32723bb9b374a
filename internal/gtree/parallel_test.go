package gtree

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"fannr/internal/graph"
	"fannr/internal/sp"
)

// Parallel construction must be a pure speedup: the index built with 8
// workers has to be bit-identical to the sequential one — same tree
// shape, same border sets, same matrices down to the last float bit —
// because every matrix row is an independent deterministic Dijkstra.
func TestParallelBuildIsDeterministic(t *testing.T) {
	nodes := 2500
	if testing.Short() {
		nodes = 800
	}
	g, err := graph.Generate(graph.GenConfig{Nodes: nodes, Seed: 17, Name: "det"})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := Build(g, Options{MaxLeafSize: 64, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		parl, err := Build(g, Options{MaxLeafSize: 64, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if err := treesIdentical(seq, parl); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
	}
}

// treesIdentical compares every structural field and matrix bit-for-bit.
func treesIdentical(a, b *Tree) error {
	if len(a.nodes) != len(b.nodes) {
		return fmt.Errorf("node count %d vs %d", len(a.nodes), len(b.nodes))
	}
	for i := range a.nodes {
		na, nb := &a.nodes[i], &b.nodes[i]
		if na.parent != nb.parent || na.depth != nb.depth || na.lo != nb.lo || na.hi != nb.hi {
			return fmt.Errorf("node %d shape differs", i)
		}
		if len(na.verts) != len(nb.verts) || len(na.borders) != len(nb.borders) || len(na.X) != len(nb.X) {
			return fmt.Errorf("node %d sets differ", i)
		}
		for j := range na.verts {
			if na.verts[j] != nb.verts[j] {
				return fmt.Errorf("node %d vert %d differs", i, j)
			}
		}
		for j := range na.borders {
			if na.borders[j] != nb.borders[j] {
				return fmt.Errorf("node %d border %d differs", i, j)
			}
		}
		for j := range na.X {
			if na.X[j] != nb.X[j] {
				return fmt.Errorf("node %d X[%d] differs", i, j)
			}
		}
		if len(na.mat) != len(nb.mat) {
			return fmt.Errorf("node %d matrix size %d vs %d", i, len(na.mat), len(nb.mat))
		}
		for j := range na.mat {
			// Exact float comparison on purpose: the matrices must be
			// bit-identical, not merely close (Inf == Inf holds here).
			if na.mat[j] != nb.mat[j] {
				return fmt.Errorf("node %d mat[%d]: %v vs %v", i, j, na.mat[j], nb.mat[j])
			}
		}
	}
	return nil
}

// The parallel build must still answer queries exactly (a cheap guard on
// top of the bit-identity test, exercising the query path end to end).
func TestParallelBuildAnswersExactly(t *testing.T) {
	g, err := graph.Generate(graph.GenConfig{Nodes: 600, Seed: 23, Name: "detq"})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Build(g, Options{MaxLeafSize: 32, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	q := tr.NewQuerier()
	ref := sp.NewDijkstra(g)
	// Generate trims to the giant component, so sample within NumNodes.
	last := graph.NodeID(g.NumNodes() - 1)
	for _, pair := range [][2]graph.NodeID{{0, last}, {5, last / 2}, {123, 456}, {17, 17}} {
		want := ref.Dist(pair[0], pair[1])
		if got := q.Dist(pair[0], pair[1]); math.Abs(got-want) > 1e-6 {
			t.Fatalf("Dist(%d,%d) = %v, want %v", pair[0], pair[1], got, want)
		}
	}
}

// One Querier per goroutine is the concurrency contract: the Tree and an
// ObjectSet are read-only and shared, every goroutine's border-vector
// memo, arena and heaps are its own. Under -race this fails on any write
// the query path makes outside its Querier; without it, it still checks
// that concurrent answers are bit-identical to sequential ones.
func TestQuerierPerGoroutine(t *testing.T) {
	g, err := graph.Generate(graph.GenConfig{Nodes: 900, Seed: 29, Name: "perg"})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Build(g, Options{MaxLeafSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumNodes()
	Q := make([]graph.NodeID, 40)
	for i := range Q {
		Q[i] = graph.NodeID((i*97 + 13) % n)
	}
	objs := tr.NewObjectSet(Q)
	answer := func(q *Querier, src graph.NodeID) []float64 {
		out := make([]float64, len(Q), 2*len(Q)+1)
		q.DistBatch(src, Q, out)
		for _, nb := range q.KNN(src, objs, 10, nil) {
			out = append(out, nb.Dist)
		}
		return append(out, q.Dist(src, Q[0]))
	}
	const goroutines, perG = 4, 25
	want := make([][]float64, goroutines*perG)
	seq := tr.NewQuerier()
	for i := range want {
		want[i] = answer(seq, graph.NodeID((i*131)%n))
	}
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			q := tr.NewQuerier()
			for i := w * perG; i < (w+1)*perG; i++ {
				got := answer(q, graph.NodeID((i*131)%n))
				for j := range got {
					if math.Float64bits(got[j]) != math.Float64bits(want[i][j]) {
						t.Errorf("goroutine %d query %d value %d: %v, sequential %v", w, i, j, got[j], want[i][j])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

func BenchmarkBuildWorkers(b *testing.B) {
	g, err := graph.Generate(graph.GenConfig{Nodes: 4000, Seed: 31, Name: "bb"})
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Build(g, Options{MaxLeafSize: 128, Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
