package fannr_test

// End-to-end tests of the public API, exactly as a downstream user would
// drive it — including concurrent querying over shared immutable indexes.
// The few internal calls reach what the facade does not export.

import (
	"bytes"
	"errors"
	"math"
	"sync"
	"testing"

	"fannr"
	"fannr/internal/core"
	"fannr/internal/graph"
	"fannr/internal/sp"
)

func buildNetwork(t testing.TB) *fannr.Graph {
	t.Helper()
	g, err := fannr.Generate(fannr.GenConfig{Nodes: 3000, Seed: 9, Name: "api"})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestPublicAPIEndToEnd(t *testing.T) {
	g := buildNetwork(t)
	gen := fannr.NewWorkloadGenerator(g, 1)
	q := fannr.Query{
		P:   gen.UniformP(0.02),
		Q:   gen.UniformQ(0.15, 48),
		Phi: 0.5,
		Agg: fannr.Max,
	}
	ref, err := fannr.Brute(g, q)
	if err != nil {
		t.Fatal(err)
	}

	labels, err := fannr.BuildPHL(g, fannr.PHLOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := fannr.BuildGTree(g, fannr.GTreeOptions{MaxLeafSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	rtP := fannr.BuildPTree(g, q.P)

	type method struct {
		name string
		run  func() (fannr.Answer, error)
	}
	ierPHL, err := fannr.NewIERGPhi("IER-PHL", g, labels)
	if err != nil {
		t.Fatal(err)
	}
	methods := []method{
		{"GD/INE", func() (fannr.Answer, error) { return fannr.GD(g, fannr.NewINE(g), q) }},
		{"RList/PHL", func() (fannr.Answer, error) {
			return fannr.RList(g, fannr.NewOracleGPhi("PHL", labels), q)
		}},
		{"IERKNN/GTree", func() (fannr.Answer, error) {
			return fannr.IERKNN(g, rtP, fannr.NewGTreeGPhi(tree), q)
		}},
		{"IERKNN/IER-PHL", func() (fannr.Answer, error) {
			return fannr.IERKNN(g, rtP, ierPHL, q)
		}},
		{"ExactMax/A*", func() (fannr.Answer, error) {
			return fannr.ExactMax(g, fannr.NewOracleGPhi("A*", sp.NewAStar(g)), q)
		}},
	}
	for _, m := range methods {
		got, err := m.run()
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		if math.Abs(got.Dist-ref.Dist) > 1e-6 {
			t.Fatalf("%s: dist %v, want %v", m.name, got.Dist, ref.Dist)
		}
	}
}

func TestPublicAPIApproximations(t *testing.T) {
	g := buildNetwork(t)
	gen := fannr.NewWorkloadGenerator(g, 2)
	q := fannr.Query{P: gen.UniformP(0.02), Q: gen.UniformQ(0.15, 32), Phi: 0.5, Agg: fannr.Sum}
	exact, err := fannr.GD(g, fannr.NewINE(g), q)
	if err != nil {
		t.Fatal(err)
	}
	apx, err := fannr.APXSum(g, fannr.NewINE(g), q)
	if err != nil {
		t.Fatal(err)
	}
	bound := fannr.APXSumRatioBound(q)
	if exact.Dist > 0 && apx.Dist/exact.Dist > bound {
		t.Fatalf("ratio %v exceeds bound %v", apx.Dist/exact.Dist, bound)
	}
	topk, err := core.KAPXSum(g, fannr.NewINE(g), q, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(topk) == 0 || topk[0].Dist < exact.Dist-1e-9 {
		t.Fatalf("KAPXSum top answer %v impossible (< exact %v)", topk[0].Dist, exact.Dist)
	}
}

// Shared immutable indexes must support concurrent readers; each goroutine
// owns its engines. Run with -race.
func TestConcurrentQueries(t *testing.T) {
	g := buildNetwork(t)
	labels, err := fannr.BuildPHL(g, fannr.PHLOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := fannr.BuildGTree(g, fannr.GTreeOptions{MaxLeafSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	results := make([]float64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			gen := fannr.NewWorkloadGenerator(g, 50) // same seed: same workload
			q := fannr.Query{
				P:   gen.UniformP(0.02),
				Q:   gen.UniformQ(0.10, 32),
				Phi: 0.5,
				Agg: fannr.Max,
			}
			var gp fannr.GPhi
			if w%2 == 0 {
				gp = fannr.NewOracleGPhi("PHL", labels)
			} else {
				gp = fannr.NewGTreeGPhi(tree)
			}
			ans, err := fannr.RList(g, gp, q)
			if err != nil {
				t.Error(err)
				return
			}
			results[w] = ans.Dist
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if math.Abs(results[w]-results[0]) > 1e-6 {
			t.Fatalf("worker %d got %v, worker 0 got %v", w, results[w], results[0])
		}
	}
}

func TestDIMACSRoundTripThroughAPI(t *testing.T) {
	g := buildNetwork(t)
	var gr, co bytes.Buffer
	if err := fannr.WriteDIMACS(g, &gr, &co); err != nil {
		t.Fatal(err)
	}
	g2, err := graph.ReadDIMACS(&gr, &co)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
		t.Fatal("round trip changed the graph")
	}
	// Same query on both graphs gives the same answer.
	gen := fannr.NewWorkloadGenerator(g, 3)
	q := fannr.Query{P: gen.UniformP(0.01), Q: gen.UniformQ(0.2, 16), Phi: 0.5, Agg: fannr.Max}
	a1, err := fannr.ExactMax(g, fannr.NewINE(g), q)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := fannr.ExactMax(g2, fannr.NewINE(g2), q)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a1.Dist-a2.Dist) > 1e-9 {
		t.Fatal("answers differ across DIMACS round trip")
	}
}

func TestErrNoResultSurfaced(t *testing.T) {
	b := fannr.NewBuilder(4)
	_ = b.AddEdge(0, 1, 1)
	_ = b.AddEdge(2, 3, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	q := fannr.Query{P: []fannr.NodeID{0}, Q: []fannr.NodeID{2, 3}, Phi: 1, Agg: fannr.Max}
	if _, err := fannr.GD(g, fannr.NewINE(g), q); !errors.Is(err, fannr.ErrNoResult) {
		t.Fatalf("err = %v, want ErrNoResult", err)
	}
}

// Objects on edges (§II-A): splitting the edge and querying on the new
// vertex gives exact answers.
func TestQueryPointOnEdge(t *testing.T) {
	g := buildNetwork(t)
	e := struct{ U, V fannr.NodeID }{0, 0}
	// Find any edge.
	edges := gEdges(g)
	e.U, e.V = edges[0].U, edges[0].V
	split, mid, err := graph.SplitEdge(g, e.U, e.V, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	gen := fannr.NewWorkloadGenerator(split, 4)
	q := fannr.Query{
		P:   gen.UniformP(0.01),
		Q:   append(gen.UniformQ(0.2, 15), mid), // one query point mid-edge
		Phi: 0.5,
		Agg: fannr.Max,
	}
	want, err := fannr.Brute(split, q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := fannr.ExactMax(split, fannr.NewINE(split), q)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Dist-want.Dist) > 1e-9 {
		t.Fatalf("edge-point query: %v vs %v", got.Dist, want.Dist)
	}
}

func gEdges(g *fannr.Graph) []fannr.Edge { return g.Edges(nil) }

func TestExperimentIDsExposed(t *testing.T) {
	ids := fannr.ExperimentIDs()
	if len(ids) < 16 {
		t.Fatalf("only %d experiment ids", len(ids))
	}
	if _, err := fannr.RunExperiment("not-a-figure", fannr.ExpConfig{}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}
