package gtree

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"fannr/internal/graph"
	"fannr/internal/sp"
	"fannr/internal/workload"
)

func roadNetwork(t testing.TB, n int, seed int64) *graph.Graph {
	t.Helper()
	g, err := graph.Generate(graph.GenConfig{Nodes: n, Seed: seed, Name: "gt"})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// noCoordGraph strips coordinates by rebuilding edges only.
func noCoordGraph(t testing.TB, g *graph.Graph) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(g.NumNodes())
	for _, e := range g.Edges(nil) {
		if err := b.AddEdge(e.U, e.V, e.W); err != nil {
			t.Fatal(err)
		}
	}
	out, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestDistMatchesDijkstra(t *testing.T) {
	for _, cfg := range []struct {
		nodes, leaf, fanout int
		seed                int64
	}{
		{600, 32, 4, 1},
		{600, 16, 2, 2},
		{1200, 64, 4, 3},
		{300, 8, 3, 4},
	} {
		g := roadNetwork(t, cfg.nodes, cfg.seed)
		tr, err := Build(g, Options{Fanout: cfg.fanout, MaxLeafSize: cfg.leaf})
		if err != nil {
			t.Fatal(err)
		}
		q := tr.NewQuerier()
		d := sp.NewDijkstra(g)
		rng := rand.New(rand.NewSource(cfg.seed ^ 0x6ee))
		for i := 0; i < 300; i++ {
			u := graph.NodeID(rng.Intn(g.NumNodes()))
			v := graph.NodeID(rng.Intn(g.NumNodes()))
			want := d.Dist(u, v)
			got := q.Dist(u, v)
			if math.Abs(got-want) > 1e-6 {
				t.Fatalf("cfg %+v: Dist(%d,%d) = %v, want %v", cfg, u, v, got, want)
			}
		}
	}
}

func TestDistSameLeafPairs(t *testing.T) {
	g := roadNetwork(t, 800, 5)
	tr, err := Build(g, Options{MaxLeafSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	q := tr.NewQuerier()
	d := sp.NewDijkstra(g)
	// Deliberately query pairs within the same leaf, where the shortest
	// path may still detour outside the leaf.
	checked := 0
	for li := range tr.nodes {
		n := &tr.nodes[li]
		if !n.isLeaf() || len(n.verts) < 2 {
			continue
		}
		u, v := n.verts[0], n.verts[len(n.verts)-1]
		want := d.Dist(u, v)
		if got := q.Dist(u, v); math.Abs(got-want) > 1e-6 {
			t.Fatalf("same-leaf Dist(%d,%d) = %v, want %v", u, v, got, want)
		}
		checked++
		if checked > 50 {
			break
		}
	}
	if checked == 0 {
		t.Fatal("no same-leaf pairs checked")
	}
}

func TestDistSelfAndAdjacent(t *testing.T) {
	g := roadNetwork(t, 400, 6)
	tr, err := Build(g, Options{MaxLeafSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	q := tr.NewQuerier()
	for v := 0; v < 20; v++ {
		if got := q.Dist(graph.NodeID(v), graph.NodeID(v)); got != 0 {
			t.Fatalf("Dist(v,v) = %v", got)
		}
	}
	d := sp.NewDijkstra(g)
	for _, e := range g.Edges(nil)[:30] {
		want := d.Dist(e.U, e.V)
		if got := q.Dist(e.U, e.V); math.Abs(got-want) > 1e-9 {
			t.Fatalf("adjacent Dist(%d,%d) = %v, want %v", e.U, e.V, got, want)
		}
	}
}

func TestDistWithoutCoordinates(t *testing.T) {
	g := noCoordGraph(t, roadNetwork(t, 500, 7))
	tr, err := Build(g, Options{MaxLeafSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	q := tr.NewQuerier()
	d := sp.NewDijkstra(g)
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 200; i++ {
		u := graph.NodeID(rng.Intn(g.NumNodes()))
		v := graph.NodeID(rng.Intn(g.NumNodes()))
		want := d.Dist(u, v)
		if got := q.Dist(u, v); math.Abs(got-want) > 1e-6 {
			t.Fatalf("BFS-partition Dist(%d,%d) = %v, want %v", u, v, got, want)
		}
	}
}

func TestDistDisconnected(t *testing.T) {
	b := graph.NewBuilder(8)
	x := []float64{0, 1, 2, 3, 10, 11, 12, 13}
	y := make([]float64, 8)
	_ = b.SetCoords(x, y)
	for _, e := range []graph.Edge{
		{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 2, V: 3, W: 1},
		{U: 4, V: 5, W: 1}, {U: 5, V: 6, W: 1}, {U: 6, V: 7, W: 1},
	} {
		_ = b.AddEdge(e.U, e.V, e.W)
	}
	g, _ := b.Build()
	tr, err := Build(g, Options{MaxLeafSize: 4, Fanout: 2})
	if err != nil {
		t.Fatal(err)
	}
	q := tr.NewQuerier()
	if got := q.Dist(0, 7); !math.IsInf(got, 1) {
		t.Fatalf("cross-component Dist = %v, want +Inf", got)
	}
	if got := q.Dist(0, 3); math.Abs(got-3) > 1e-9 {
		t.Fatalf("Dist(0,3) = %v, want 3", got)
	}
}

func TestSingleLeafTree(t *testing.T) {
	g := roadNetwork(t, 60, 9)
	tr, err := Build(g, Options{MaxLeafSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if !tr.nodes[0].isLeaf() {
		t.Fatal("expected single-leaf tree")
	}
	q := tr.NewQuerier()
	d := sp.NewDijkstra(g)
	for i := 0; i < 50; i++ {
		u := graph.NodeID(i % g.NumNodes())
		v := graph.NodeID((i * 7) % g.NumNodes())
		if math.Abs(q.Dist(u, v)-d.Dist(u, v)) > 1e-9 {
			t.Fatalf("single-leaf Dist(%d,%d) mismatch", u, v)
		}
	}
	// kNN on the degenerate tree.
	objs := tr.NewObjectSet([]graph.NodeID{3, 9, 21, 40})
	targets := graph.NewNodeSet(g.NumNodes())
	targets.AddAll([]graph.NodeID{3, 9, 21, 40})
	got := q.KNN(5, objs, 2, nil)
	want := d.KNNAmong(5, targets, 2, nil)
	if len(got) != len(want) {
		t.Fatalf("single-leaf KNN lengths %d vs %d", len(got), len(want))
	}
	for i := range got {
		if math.Abs(got[i].Dist-want[i].Dist) > 1e-9 {
			t.Fatalf("single-leaf KNN dist %d: %v vs %v", i, got[i].Dist, want[i].Dist)
		}
	}
}

func TestKNNMatchesINE(t *testing.T) {
	g := roadNetwork(t, 1000, 10)
	tr, err := Build(g, Options{MaxLeafSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	q := tr.NewQuerier()
	d := sp.NewDijkstra(g)
	rng := rand.New(rand.NewSource(11))
	targets := graph.NewNodeSet(g.NumNodes())
	for trial := 0; trial < 30; trial++ {
		m := 5 + rng.Intn(40)
		objSlice := make([]graph.NodeID, 0, m)
		targets.Reset()
		for len(objSlice) < m {
			v := graph.NodeID(rng.Intn(g.NumNodes()))
			if !targets.Contains(v) {
				targets.Add(v, 0)
				objSlice = append(objSlice, v)
			}
		}
		objs := tr.NewObjectSet(objSlice)
		src := graph.NodeID(rng.Intn(g.NumNodes()))
		k := 1 + rng.Intn(m)
		got := q.KNN(src, objs, k, nil)
		want := d.KNNAmong(src, targets, k, nil)
		if len(got) != len(want) {
			t.Fatalf("trial %d: KNN lengths %d vs %d", trial, len(got), len(want))
		}
		for i := range got {
			if math.Abs(got[i].Dist-want[i].Dist) > 1e-6 {
				t.Fatalf("trial %d: KNN dist %d = %v, want %v (src %d, k %d)",
					trial, i, got[i].Dist, want[i].Dist, src, k)
			}
		}
		if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i].Dist < got[j].Dist }) {
			t.Fatal("KNN result not sorted")
		}
	}
}

func TestKNNWithSourceAmongObjects(t *testing.T) {
	g := roadNetwork(t, 400, 12)
	tr, err := Build(g, Options{MaxLeafSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	q := tr.NewQuerier()
	objs := tr.NewObjectSet([]graph.NodeID{5, 10, 15})
	got := q.KNN(10, objs, 1, nil)
	if len(got) != 1 || got[0].Node != 10 || got[0].Dist != 0 {
		t.Fatalf("got %+v, want self at distance 0", got)
	}
}

func TestKNNKLargerThanObjects(t *testing.T) {
	g := roadNetwork(t, 300, 13)
	tr, err := Build(g, Options{MaxLeafSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	q := tr.NewQuerier()
	objs := tr.NewObjectSet([]graph.NodeID{1, 2, 3})
	got := q.KNN(0, objs, 10, nil)
	if len(got) != 3 {
		t.Fatalf("got %d results, want 3", len(got))
	}
	if got2 := q.KNN(0, objs, 0, nil); len(got2) != 0 {
		t.Fatal("k=0 should return nothing")
	}
}

func TestObjectSetCounts(t *testing.T) {
	g := roadNetwork(t, 500, 14)
	tr, err := Build(g, Options{MaxLeafSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	objSlice := []graph.NodeID{0, 7, 99, 250, graph.NodeID(g.NumNodes() - 1)}
	objs := tr.NewObjectSet(objSlice)
	if objs.Len() != len(objSlice) {
		t.Fatalf("Len = %d, want %d", objs.Len(), len(objSlice))
	}
	if objs.count[0] != int32(len(objSlice)) {
		t.Fatalf("root count = %d, want %d", objs.count[0], len(objSlice))
	}
	total := 0
	for ni := range tr.nodes {
		list := objs.leafObjects(int32(ni))
		if len(list) > 0 && !tr.nodes[ni].isLeaf() {
			t.Fatalf("node %d holds objects but is not a leaf", ni)
		}
		for _, o := range list {
			if tr.leafOf[o] != int32(ni) {
				t.Fatalf("object %d filed under leaf %d, lives in %d", o, ni, tr.leafOf[o])
			}
		}
		total += len(list)
	}
	if total != len(objSlice) {
		t.Fatalf("leaves hold %d objects, want %d", total, len(objSlice))
	}
	if objs.MemoryBytes() <= 0 {
		t.Fatal("MemoryBytes should be positive")
	}
}

func TestTreeShape(t *testing.T) {
	g := roadNetwork(t, 2000, 15)
	tr, err := Build(g, Options{Fanout: 4, MaxLeafSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	s := tr.Stats()
	if s.Leaves < 2000/64 {
		t.Fatalf("too few leaves: %+v", s)
	}
	if s.Height < 2 || s.MemoryBytes <= 0 || s.MatrixCells <= 0 {
		t.Fatalf("implausible stats: %+v", s)
	}
	// Every vertex assigned to exactly one leaf, leaves within size bound.
	counts := make(map[int32]int)
	for v := 0; v < g.NumNodes(); v++ {
		counts[tr.leafOf[v]]++
	}
	for leaf, c := range counts {
		n := &tr.nodes[leaf]
		if !n.isLeaf() {
			t.Fatalf("leafOf points at internal node %d", leaf)
		}
		if c != len(n.verts) || c > 64 {
			t.Fatalf("leaf %d has %d verts (stored %d, max 64)", leaf, c, len(n.verts))
		}
	}
	// Borders are real: each has an edge leaving its node.
	for i := range tr.nodes {
		n := &tr.nodes[i]
		for _, b := range n.borders {
			nbrs, _ := g.Neighbors(b)
			out := false
			for _, u := range nbrs {
				if !tr.contains(n, u) {
					out = true
					break
				}
			}
			if !out {
				t.Fatalf("vertex %d marked border of node %d but has no outgoing edge", b, i)
			}
		}
	}
	if len(tr.nodes[0].borders) != 0 {
		t.Fatal("root must have no borders")
	}
}

func BenchmarkBuild(b *testing.B) {
	g := roadNetwork(b, 3000, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Build(g, Options{MaxLeafSize: 128}); err != nil {
			b.Fatal(err)
		}
	}
}

// The query benchmarks run on the graph bench/ serves (NW at 1/64,
// ~17k vertices, default fanout and leaf size) with Q drawn the way
// algo_mix draws it — |Q| ∈ {64, 256} inside an A = 10 % region — so a
// regression in the kernels shows here before a full `make bench`.
var (
	benchTreeOnce sync.Once
	benchTree     *Tree
	benchTreeErr  error
)

func trafficTree(b *testing.B) *Tree {
	b.Helper()
	benchTreeOnce.Do(func() {
		g, err := workload.LoadDataset("NW", 1.0/64)
		if err != nil {
			benchTreeErr = err
			return
		}
		benchTree, benchTreeErr = Build(g, Options{})
	})
	if benchTreeErr != nil {
		b.Fatal(benchTreeErr)
	}
	return benchTree
}

// BenchmarkDist times one source-to-Q distance evaluation per target:
// point-to-point Dist, and DistBatch (the GTree-SPSP / IER-GTree path)
// with a fresh source per batch.
func BenchmarkDist(b *testing.B) {
	tr := trafficTree(b)
	n := tr.g.NumNodes()
	for _, m := range []int{64, 256} {
		Q := workload.NewGenerator(tr.g, 3).UniformQ(0.10, m)
		b.Run(fmt.Sprintf("pair/Q=%d", m), func(b *testing.B) {
			q := tr.NewQuerier()
			rng := rand.New(rand.NewSource(3))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q.Dist(graph.NodeID(rng.Intn(n)), Q[i%m])
			}
		})
		b.Run(fmt.Sprintf("batch/Q=%d", m), func(b *testing.B) {
			q := tr.NewQuerier()
			rng := rand.New(rand.NewSource(3))
			out := make([]float64, m)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += m {
				q.DistBatch(graph.NodeID(rng.Intn(n)), Q, out)
			}
		})
	}
}

// BenchmarkKNN times the GTree engine's g_φ: the φ|Q| nearest members of
// Q from a random source.
func BenchmarkKNN(b *testing.B) {
	tr := trafficTree(b)
	n := tr.g.NumNodes()
	for _, m := range []int{64, 256} {
		objs := tr.NewObjectSet(workload.NewGenerator(tr.g, 5).UniformQ(0.10, m))
		for _, phi := range []float64{0.1, 1} {
			k := int(math.Ceil(phi * float64(m)))
			b.Run(fmt.Sprintf("Q=%d/phi=%g", m, phi), func(b *testing.B) {
				q := tr.NewQuerier()
				rng := rand.New(rand.NewSource(5))
				var buf []sp.Neighbor
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					buf = q.KNN(graph.NodeID(rng.Intn(n)), objs, k, buf[:0])
				}
			})
		}
	}
}
