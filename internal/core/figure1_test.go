package core

import (
	"math"
	"testing"

	"fannr/internal/graph"
)

// fig1Graph reconstructs a road network consistent with the paper's
// running example (Fig. 1): data points p1..p9, query points q1..q4 with
// q3 co-located with p4 and q4 with p5, q1 on edge (p2,p3) and q2 on
// (p3,p6), and the distances the paper states:
//
//	δ(p2,q1)=10 δ(p2,q2)=14 δ(p2,q3)=12 δ(p2,q4)=16   (max-ANN 16, sum-ANN 52)
//	δ(p3,q1)=2  δ(p3,q2)=2                            (φ=0.5 FANN answers = 2 / 4)
//
// Node ids: p1..p9 → 0..8, q1 → 9, q2 → 10; q3 ≡ p4 (id 3), q4 ≡ p5 (id 4).
func fig1Graph(t *testing.T) (*graph.Graph, Query) {
	t.Helper()
	b := graph.NewBuilder(11)
	edges := []graph.Edge{
		{U: 1, V: 9, W: 10}, // p2 - q1
		{U: 9, V: 2, W: 2},  // q1 - p3
		{U: 2, V: 10, W: 2}, // p3 - q2
		{U: 10, V: 5, W: 8}, // q2 - p6
		{U: 1, V: 3, W: 12}, // p2 - p4 (= q3)
		{U: 1, V: 4, W: 16}, // p2 - p5 (= q4)
		{U: 0, V: 1, W: 30}, // p1 far from the action
		{U: 0, V: 6, W: 5},  // p7
		{U: 6, V: 7, W: 6},  // p8
		{U: 7, V: 8, W: 7},  // p9
	}
	for _, e := range edges {
		if err := b.AddEdge(e.U, e.V, e.W); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	q := Query{
		P: []graph.NodeID{0, 1, 2, 3, 4, 5, 6, 7, 8}, // p1..p9
		Q: []graph.NodeID{9, 10, 3, 4},               // q1, q2, q3=p4, q4=p5
	}
	return g, q
}

func TestPaperFigure1(t *testing.T) {
	g, base := fig1Graph(t)
	gp := NewINE(g)

	cases := []struct {
		name     string
		phi      float64
		agg      Aggregate
		wantP    graph.NodeID
		wantDist float64
	}{
		// "The result of this max-ANN query is p2 with the aggregate
		// distance of 16."
		{"max-ANN", 1.0, Max, 1, 16},
		// "The result of this sum-ANN query is also p2 with ... 52."
		{"sum-ANN", 1.0, Sum, 1, 52},
		// "The result of this max-FANN_R query is p3 with ... 2."
		{"max-FANN phi=0.5", 0.5, Max, 2, 2},
		// "The result of this sum-FANN_R query is also p3 with ... 4."
		{"sum-FANN phi=0.5", 0.5, Sum, 2, 4},
	}
	for _, c := range cases {
		q := base
		q.Phi = c.phi
		q.Agg = c.agg
		got, err := Brute(g, q)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got.P != c.wantP || math.Abs(got.Dist-c.wantDist) > 1e-9 {
			t.Fatalf("%s: got (p%d, %v), paper says (p%d, %v)",
				c.name, got.P+1, got.Dist, c.wantP+1, c.wantDist)
		}
		// Every exact algorithm agrees with the paper's stated answer.
		if ans, err := first(GD(g, gp, q, 1)); err != nil || math.Abs(ans.Dist-c.wantDist) > 1e-9 {
			t.Fatalf("%s: GD = (%+v, %v)", c.name, ans, err)
		}
		if ans, err := first(RList(g, gp, q, 1)); err != nil || math.Abs(ans.Dist-c.wantDist) > 1e-9 {
			t.Fatalf("%s: RList = (%+v, %v)", c.name, ans, err)
		}
		if c.agg == Max {
			if ans, err := first(ExactMax(g, gp, q, 1)); err != nil || ans.P != c.wantP {
				t.Fatalf("%s: ExactMax = (%+v, %v)", c.name, ans, err)
			}
		}
	}

	// "The result of this max-FANN_R query is p* = p3, d* = 2 and
	// Q*_φ = {q1, q2}" — check the subset too.
	q := base
	q.Phi = 0.5
	q.Agg = Max
	ans, err := first(ExactMax(g, gp, q, 1))
	if err != nil {
		t.Fatal(err)
	}
	subset := map[graph.NodeID]bool{}
	for _, v := range ans.Subset {
		subset[v] = true
	}
	if len(subset) != 2 || !subset[9] || !subset[10] {
		t.Fatalf("Q*_phi = %v, paper says {q1, q2}", ans.Subset)
	}

	// APX-sum on the example: the paper's running example of Algorithm 3
	// returns the true optimum p3 because p3 is among the candidates
	// (nearest neighbors of Q include p3 for q1 and q2).
	q.Agg = Sum
	apx, err := first(APXSum(g, gp, q, 1))
	if err != nil {
		t.Fatal(err)
	}
	if apx.P != 2 || math.Abs(apx.Dist-4) > 1e-9 {
		t.Fatalf("APX-sum = (p%d, %v), paper's example says (p3, 4)", apx.P+1, apx.Dist)
	}
}
