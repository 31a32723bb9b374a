package sp

import (
	"math"
	"math/rand"
	"testing"

	"fannr/internal/graph"
)

// landmarkBound is max over landmarks of |δ(l,t) − δ(l,v)|, skipping
// landmarks that reach only one of the two.
func landmarkBound(land [][]float64, v, t graph.NodeID) float64 {
	best := 0.0
	for _, vec := range land {
		dv, dt := vec[v], vec[t]
		if math.IsInf(dv, 1) || math.IsInf(dt, 1) {
			continue
		}
		best = math.Max(best, math.Abs(dt-dv))
	}
	return best
}

func TestLandmarksBoundAdmissible(t *testing.T) {
	g := randomGraph(t, 150, 40)
	land := Landmarks(g, 6)
	if len(land) != 6 {
		t.Fatalf("placed %d landmarks, want 6", len(land))
	}
	d := NewDijkstra(g)
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 200; i++ {
		u := graph.NodeID(rng.Intn(g.NumNodes()))
		v := graph.NodeID(rng.Intn(g.NumNodes()))
		lb := landmarkBound(land, u, v)
		if true1 := d.Dist(u, v); lb > true1+1e-9 {
			t.Fatalf("landmark bound %v exceeds true distance %v for (%d,%d)", lb, true1, u, v)
		}
	}
}

func TestLandmarksWithoutCoordinates(t *testing.T) {
	// Landmark bounds, unlike the Euclidean ones, need no coordinates.
	b := graph.NewBuilder(6)
	for _, e := range []graph.Edge{
		{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 2}, {U: 2, V: 3, W: 3},
		{U: 3, V: 4, W: 4}, {U: 4, V: 5, W: 5}, {U: 0, V: 5, W: 20},
	} {
		if err := b.AddEdge(e.U, e.V, e.W); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	land := Landmarks(g, 2)
	if len(land) < 1 {
		t.Fatal("no landmarks placed")
	}
	if lb := landmarkBound(land, 0, 5); lb <= 0 || lb > 15 {
		t.Fatalf("bound on d(0,5) = 15 is %v, want in (0, 15]", lb)
	}
}

func TestLandmarksDisconnected(t *testing.T) {
	b := graph.NewBuilder(4)
	_ = b.AddEdge(0, 1, 1)
	_ = b.AddEdge(2, 3, 1)
	g, _ := b.Build()
	land := Landmarks(g, 3)
	if len(land) == 0 {
		t.Fatal("no landmarks placed")
	}
	for i, vec := range land {
		if vec[0] != 0 && vec[1] != 0 {
			t.Fatalf("landmark %d sits outside node 0's component: %v", i, vec)
		}
		if !math.IsInf(vec[2], 1) || !math.IsInf(vec[3], 1) {
			t.Fatalf("landmark %d reaches the other component: %v", i, vec)
		}
	}
	if lb := landmarkBound(land, 0, 3); lb != 0 {
		t.Fatalf("cross-component bound = %v, want 0", lb)
	}
}
