package workload

import (
	"math"
	"os"
	"sync"
	"testing"

	"fannr/internal/graph"
	"fannr/internal/sp"
)

func testGraph(t testing.TB) *graph.Graph {
	t.Helper()
	g, err := graph.Generate(graph.GenConfig{Nodes: 2000, Seed: 3, Name: "wl"})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestLoadDatasetSynthetic(t *testing.T) {
	g, err := LoadDataset("DE", 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if g.Name() != "DE" {
		t.Fatalf("Name = %q", g.Name())
	}
	scale := 0.01
	want := int(48812 * scale)
	if g.NumNodes() < want/2 || g.NumNodes() > want*2 {
		t.Fatalf("NumNodes = %d, want about %d", g.NumNodes(), want)
	}
	if _, err := LoadDataset("NOPE", 1); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestLoadDatasetFromDIMACSDir(t *testing.T) {
	// Place a real DIMACS pair in FANNR_DATA_DIR; LoadDataset must prefer
	// it over synthesis.
	g, err := graph.Generate(graph.GenConfig{Nodes: 300, Seed: 9, Name: "DE"})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	gr, err := os.Create(dir + "/DE.gr")
	if err != nil {
		t.Fatal(err)
	}
	co, err := os.Create(dir + "/DE.co")
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteDIMACS(g, gr, co); err != nil {
		t.Fatal(err)
	}
	gr.Close()
	co.Close()
	t.Setenv("FANNR_DATA_DIR", dir)
	loaded, err := LoadDataset("DE", 1)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumNodes() != g.NumNodes() || loaded.NumEdges() != g.NumEdges() {
		t.Fatalf("loaded %d/%d, want %d/%d from data dir",
			loaded.NumNodes(), loaded.NumEdges(), g.NumNodes(), g.NumEdges())
	}
	// Without the .co file the graph still loads (no coords).
	if err := os.Remove(dir + "/DE.co"); err != nil {
		t.Fatal(err)
	}
	loaded2, err := LoadDataset("DE", 1)
	if err != nil {
		t.Fatal(err)
	}
	if loaded2.HasCoords() {
		t.Fatal("coords appeared from nowhere")
	}
	// A dataset missing from the dir falls back to synthesis.
	synth, err := LoadDataset("ME", 0.005)
	if err != nil {
		t.Fatal(err)
	}
	if synth.NumNodes() == 0 {
		t.Fatal("fallback synthesis failed")
	}
}

func TestDatasetOrderingPreserved(t *testing.T) {
	prev := 0
	for _, spec := range TableIII {
		if spec.PaperNodes <= prev {
			t.Fatalf("TableIII not in size order at %s", spec.Name)
		}
		prev = spec.PaperNodes
	}
}

func TestUniformP(t *testing.T) {
	g := testGraph(t)
	gen := NewGenerator(g, 1)
	for _, d := range []float64{0.0001, 0.001, 0.01, 0.1, 1} {
		p := gen.UniformP(d)
		want := int(math.Ceil(d * float64(g.NumNodes())))
		if want < 1 {
			want = 1
		}
		if len(p) != want {
			t.Fatalf("UniformP(%v) = %d points, want %d", d, len(p), want)
		}
		seen := map[graph.NodeID]bool{}
		for _, v := range p {
			if seen[v] {
				t.Fatalf("duplicate data point %d at d=%v", v, d)
			}
			seen[v] = true
		}
	}
	if len(gen.UniformP(1)) != g.NumNodes() {
		t.Fatal("d=1 should select every node")
	}
}

func TestUniformQWithinRegion(t *testing.T) {
	g := testGraph(t)
	gen := NewGenerator(g, 2)
	const a, m = 0.15, 64
	q := gen.UniformQ(a, m)
	if len(q) != m {
		t.Fatalf("UniformQ returned %d, want %d", len(q), m)
	}
	// All chosen nodes must lie within a·radius of the seed (possibly
	// slightly beyond if the region had to expand, which cannot happen for
	// this m on a 2000-node graph at 15%).
	limit := a * gen.radius
	d := sp.NewDijkstra(g)
	all := d.All(gen.seed)
	for _, v := range q {
		if all[v] > limit+1e-9 {
			t.Fatalf("query point %d at %v beyond region limit %v", v, all[v], limit)
		}
	}
}

func TestUniformQExpandsSmallRegions(t *testing.T) {
	g := testGraph(t)
	gen := NewGenerator(g, 3)
	// A tiny region cannot hold 256 nodes; the generator must expand.
	q := gen.UniformQ(0.0001, 256)
	if len(q) != 256 {
		t.Fatalf("expanded region returned %d, want 256", len(q))
	}
}

func TestClusteredQ(t *testing.T) {
	g := testGraph(t)
	gen := NewGenerator(g, 4)
	for _, c := range []int{1, 2, 4, 8} {
		q := gen.ClusteredQ(0.5, 64, c)
		if len(q) != 64 {
			t.Fatalf("ClusteredQ(C=%d) = %d points, want 64", c, len(q))
		}
		seen := map[graph.NodeID]bool{}
		for _, v := range q {
			if seen[v] {
				t.Fatalf("duplicate query point at C=%d", c)
			}
			seen[v] = true
		}
	}
	// C > M clamps.
	if got := gen.ClusteredQ(0.5, 4, 10); len(got) != 4 {
		t.Fatalf("C>M returned %d, want 4", len(got))
	}
}

// Clustered Q should be more spatially concentrated than uniform Q:
// compare mean pairwise Euclidean distance.
func TestClusteredQTighterThanUniform(t *testing.T) {
	g := testGraph(t)
	gen := NewGenerator(g, 5)
	spread := func(q []graph.NodeID) float64 {
		total, n := 0.0, 0
		for i := 0; i < len(q); i++ {
			for j := i + 1; j < len(q); j++ {
				total += g.Euclid(q[i], q[j])
				n++
			}
		}
		return total / float64(n)
	}
	uni := spread(gen.UniformQ(0.5, 64))
	clu := spread(gen.ClusteredQ(0.5, 64, 1))
	if clu >= uni {
		t.Fatalf("clustered spread %v not tighter than uniform %v", clu, uni)
	}
}

func TestPOILayers(t *testing.T) {
	g := testGraph(t)
	gen := NewGenerator(g, 6)
	for _, layer := range TableIV {
		pts := gen.POI(layer)
		if len(pts) < 4 {
			t.Fatalf("layer %s produced %d points", layer.Name, len(pts))
		}
		seen := map[graph.NodeID]bool{}
		for _, v := range pts {
			if seen[v] {
				t.Fatalf("layer %s has duplicates", layer.Name)
			}
			seen[v] = true
		}
	}
	if _, err := FindPOILayer("FF"); err != nil {
		t.Fatal(err)
	}
	if _, err := FindPOILayer("XX"); err == nil {
		t.Fatal("unknown layer accepted")
	}
}

func TestPOICountsScale(t *testing.T) {
	g := testGraph(t)
	gen := NewGenerator(g, 7)
	ff, _ := FindPOILayer("FF")
	ch, _ := FindPOILayer("CH")
	if len(gen.POI(ff)) < len(gen.POI(ch)) {
		t.Fatal("FF should be denser than CH")
	}
}

func TestDefaultParams(t *testing.T) {
	p := DefaultParams()
	if p.D != 0.001 || p.A != 0.10 || p.M != 128 || p.C != 1 || p.Phi != 0.5 {
		t.Fatalf("DefaultParams = %+v", p)
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	g := testGraph(t)
	a := NewGenerator(g, 42).UniformP(0.01)
	b := NewGenerator(g, 42).UniformP(0.01)
	if len(a) != len(b) {
		t.Fatal("nondeterministic sizes")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("nondeterministic sampling")
		}
	}
}

// TestConcurrentDraws certifies the Generator's concurrency contract: one
// shared instance serving many goroutines must produce only well-formed
// draws (right cardinality, distinct in-range nodes) with no data race on
// the shared rand.Rand or Dijkstra scratch. Run under -race.
func TestConcurrentDraws(t *testing.T) {
	g := testGraph(t)
	gen := NewGenerator(g, 8)
	ff, _ := FindPOILayer("FF")
	check := func(t *testing.T, pts []graph.NodeID, want int) {
		t.Helper()
		if len(pts) != want {
			t.Errorf("draw returned %d points, want %d", len(pts), want)
		}
		seen := map[graph.NodeID]bool{}
		for _, v := range pts {
			if v < 0 || int(v) >= g.NumNodes() {
				t.Errorf("node %d out of range", v)
			}
			if seen[v] {
				t.Errorf("duplicate node %d", v)
			}
			seen[v] = true
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				check(t, gen.UniformP(0.01), int(math.Ceil(0.01*float64(g.NumNodes()))))
				check(t, gen.UniformQ(0.2, 32), 32)
				check(t, gen.ClusteredQ(0.5, 32, 4), 32)
				if pts := gen.POI(ff); len(pts) < 4 {
					t.Errorf("POI draw returned %d points", len(pts))
				}
			}
		}()
	}
	wg.Wait()
}
