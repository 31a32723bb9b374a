package phl

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"fannr/internal/graph"
	"fannr/internal/pqueue"
	"fannr/internal/sp"
)

func randomGraph(t testing.TB, n int, seed int64) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for v := 1; v < n; v++ {
		if err := b.AddEdge(graph.NodeID(v), graph.NodeID(rng.Intn(v)), 1+rng.Float64()*9); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2*n; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			_ = b.AddEdge(graph.NodeID(u), graph.NodeID(v), 1+rng.Float64()*9)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestDistMatchesDijkstra(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(t, 100, seed)
		ix, err := Build(g, Options{})
		if err != nil {
			t.Fatal(err)
		}
		d := sp.NewDijkstra(g)
		rng := rand.New(rand.NewSource(seed ^ 0x9e3))
		for i := 0; i < 50; i++ {
			u := graph.NodeID(rng.Intn(g.NumNodes()))
			v := graph.NodeID(rng.Intn(g.NumNodes()))
			if math.Abs(ix.Dist(u, v)-d.Dist(u, v)) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestDistOnRoadNetwork(t *testing.T) {
	g, err := graph.Generate(graph.GenConfig{Nodes: 1500, Seed: 21, Name: "phl"})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Build(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	d := sp.NewDijkstra(g)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 100; i++ {
		u := graph.NodeID(rng.Intn(g.NumNodes()))
		v := graph.NodeID(rng.Intn(g.NumNodes()))
		want := d.Dist(u, v)
		if got := ix.Dist(u, v); math.Abs(got-want) > 1e-6 {
			t.Fatalf("Dist(%d,%d) = %v, want %v", u, v, got, want)
		}
	}
}

func TestDistSelf(t *testing.T) {
	g := randomGraph(t, 20, 1)
	ix, err := Build(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.NumNodes(); v++ {
		if d := ix.Dist(graph.NodeID(v), graph.NodeID(v)); d != 0 {
			t.Fatalf("Dist(%d,%d) = %v, want 0", v, v, d)
		}
	}
}

func TestDistDisconnected(t *testing.T) {
	b := graph.NewBuilder(4)
	_ = b.AddEdge(0, 1, 1)
	_ = b.AddEdge(2, 3, 1)
	g, _ := b.Build()
	ix, err := Build(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d := ix.Dist(0, 2); !math.IsInf(d, 1) {
		t.Fatalf("Dist across components = %v, want +Inf", d)
	}
}

func TestBudgetExceeded(t *testing.T) {
	g := randomGraph(t, 200, 2)
	_, err := Build(g, Options{MaxEntries: 50})
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
}

func TestLabelsAreSortedAndSized(t *testing.T) {
	g := randomGraph(t, 150, 3)
	ix, err := Build(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.NumNodes(); v++ {
		hubs, dists := ix.label(graph.NodeID(v))
		for i := 1; i < len(hubs); i++ {
			if hubs[i] <= hubs[i-1] {
				t.Fatalf("label of %d not strictly sorted by rank", v)
			}
		}
		if len(hubs) == 0 || len(hubs) != len(dists) {
			t.Fatalf("node %d has label of %d hubs / %d dists", v, len(hubs), len(dists))
		}
	}
	// MemoryBytes must account for the full footprint: both slabs (12
	// bytes/entry) plus the rank and offset tables.
	minBytes := ix.Entries()*12 + int64(g.NumNodes())*4
	if ix.Entries() <= 0 || ix.MemoryBytes() < minBytes {
		t.Fatalf("entry accounting inconsistent: %d entries, %d bytes (< %d)",
			ix.Entries(), ix.MemoryBytes(), minBytes)
	}
	if a := ix.AvgLabelSize(); a < 1 {
		t.Fatalf("AvgLabelSize = %v, want >= 1", a)
	}
	// Pruning must keep labels far below the trivial n-per-node bound.
	if a := ix.AvgLabelSize(); a > float64(g.NumNodes())/2 {
		t.Fatalf("labels not pruned: avg %v on %d nodes", a, g.NumNodes())
	}
}

// BenchmarkBuild is the index build every bench/ workload's setup_s
// pays, on the graph they pay it on (NW 1/64): seconds per build, the
// label size the hub order reaches, and the share of the build spent
// sampling trees for that order.
func BenchmarkBuild(b *testing.B) {
	g := loadNW(b, 1.0/64)
	var ix *Index
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix = mustBuild(b, g)
	}
	b.StopTimer()
	b.ReportMetric(ix.AvgLabelSize(), "entries/node")
	start := time.Now()
	treeWeights(g, sampleRoots(g.NumNodes()), pqueue.NewIndexedHeap(g.NumNodes()))
	b.ReportMetric(float64(time.Since(start).Microseconds())/1e3, "sampling-ms")
}

func BenchmarkDist(b *testing.B) {
	g, err := graph.Generate(graph.GenConfig{Nodes: 5000, Seed: 4})
	if err != nil {
		b.Fatal(err)
	}
	ix, err := Build(g, Options{})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := graph.NodeID(rng.Intn(g.NumNodes()))
		v := graph.NodeID(rng.Intn(g.NumNodes()))
		ix.Dist(u, v)
	}
}
