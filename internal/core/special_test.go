package core

import (
	"math"
	"math/rand"
	"testing"

	"fannr/internal/graph"
	"fannr/internal/sp"
)

// At φ = 1 an FANN_R query is the classic aggregate nearest neighbor
// query: the member of P minimizing the aggregate distance to all of Q.
func TestANNEqualsPhiOneFANN(t *testing.T) {
	env := newTestEnv(t, 400, 80)
	rng := rand.New(rand.NewSource(81))
	gp := env.engines[0]
	d := sp.NewDijkstra(env.g)
	for trial := 0; trial < 4; trial++ {
		agg := Aggregate(trial % 2)
		q := env.randomQuery(rng, 25, 8, 1.0, agg)
		want := math.Inf(1)
		for _, p := range q.P {
			all := d.All(p)
			val := 0.0
			for _, m := range q.Q {
				if agg == Max {
					val = math.Max(val, all[m])
				} else {
					val += all[m]
				}
			}
			want = math.Min(want, val)
		}
		got, err := first(GD(env.g, gp, q, 1))
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got.Dist-want) > 1e-9 {
			t.Fatalf("FANN at φ = 1 gives %v, the ANN is %v", got.Dist, want)
		}
	}
}

// OMP over V must never be worse than the best answer restricted to any
// explicit P, and must match a brute-force scan of all vertices.
func TestOMPMatchesFullScan(t *testing.T) {
	g, err := graph.Generate(graph.GenConfig{Nodes: 250, Seed: 82})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(83))
	Q := make([]graph.NodeID, 6)
	for i := range Q {
		Q[i] = graph.NodeID(rng.Intn(g.NumNodes()))
	}
	d := sp.NewDijkstra(g)
	for _, agg := range []Aggregate{Max, Sum} {
		// Brute force over every vertex.
		best := math.Inf(1)
		for v := 0; v < g.NumNodes(); v++ {
			all := d.All(graph.NodeID(v))
			val := 0.0
			for _, q := range Q {
				if agg == Max {
					val = math.Max(val, all[q])
				} else {
					val += all[q]
				}
			}
			if val < best {
				best = val
			}
		}
		got, err := OMP(g, NewINE(g), Q, agg)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got.Dist-best) > 1e-9 {
			t.Fatalf("OMP(%v) = %v, full scan says %v", agg, got.Dist, best)
		}
	}
}

func TestFlexibleOMPImprovesOnOMP(t *testing.T) {
	g, err := graph.Generate(graph.GenConfig{Nodes: 300, Seed: 84})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(85))
	Q := make([]graph.NodeID, 8)
	for i := range Q {
		Q[i] = graph.NodeID(rng.Intn(g.NumNodes()))
	}
	gp := NewINE(g)
	full, err := FlexibleOMP(g, gp, Q, 1.0, Max)
	if err != nil {
		t.Fatal(err)
	}
	half, err := FlexibleOMP(g, gp, Q, 0.5, Max)
	if err != nil {
		t.Fatal(err)
	}
	// Serving fewer points can only help.
	if half.Dist > full.Dist+1e-9 {
		t.Fatalf("phi=0.5 cost %v exceeds phi=1 cost %v", half.Dist, full.Dist)
	}
	if len(half.Subset) != 4 || len(full.Subset) != 8 {
		t.Fatalf("subset sizes %d/%d, want 4/8", len(half.Subset), len(full.Subset))
	}
	// A meeting point co-located with a query point is optimal at tiny φ.
	tiny, err := FlexibleOMP(g, gp, Q, 0.01, Max)
	if err != nil {
		t.Fatal(err)
	}
	if tiny.Dist != 0 {
		t.Fatalf("phi→0 OMP cost = %v, want 0 (meet at a query point)", tiny.Dist)
	}
}
