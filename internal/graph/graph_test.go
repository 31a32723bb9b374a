package graph

import (
	"math"
	"testing"
)

// tinyGraph builds the 5-node test network used across this package:
//
//	0 --1-- 1 --2-- 2
//	|       |
//	4       3
//	|       |
//	3 --2-- 4
func tinyGraph(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder(5)
	for _, e := range []Edge{{0, 1, 1}, {1, 2, 2}, {0, 3, 4}, {1, 4, 3}, {3, 4, 2}} {
		if err := b.AddEdge(e.U, e.V, e.W); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBuildCounts(t *testing.T) {
	g := tinyGraph(t)
	if g.NumNodes() != 5 {
		t.Fatalf("NumNodes = %d, want 5", g.NumNodes())
	}
	if g.NumEdges() != 5 {
		t.Fatalf("NumEdges = %d, want 5", g.NumEdges())
	}
	if g.Degree(1) != 3 {
		t.Fatalf("Degree(1) = %d, want 3", g.Degree(1))
	}
}

func TestNeighborsSymmetric(t *testing.T) {
	g := tinyGraph(t)
	for u := 0; u < g.NumNodes(); u++ {
		nbrs, ws := g.Neighbors(NodeID(u))
		for i, v := range nbrs {
			w, ok := g.EdgeWeight(v, NodeID(u))
			if !ok || w != ws[i] {
				t.Fatalf("edge (%d,%d) not symmetric: %v vs %v (ok=%v)", u, v, ws[i], w, ok)
			}
		}
	}
}

func TestBuildRejectsBadEdges(t *testing.T) {
	b := NewBuilder(3)
	if err := b.AddEdge(1, 1, 1); err == nil {
		t.Fatal("self-loop accepted")
	}
	if err := b.AddEdge(0, 5, 1); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
	if err := b.AddEdge(0, 1, -2); err == nil {
		t.Fatal("negative weight accepted")
	}
	if err := b.AddEdge(0, 1, 0); err == nil {
		t.Fatal("zero weight accepted")
	}
	if err := b.AddEdge(0, 1, math.Inf(1)); err == nil {
		t.Fatal("infinite weight accepted")
	}
}

func TestBuildMergesParallelEdges(t *testing.T) {
	b := NewBuilder(2)
	_ = b.AddEdge(0, 1, 5)
	_ = b.AddEdge(1, 0, 3) // reversed duplicate, lighter
	_ = b.AddEdge(0, 1, 7)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", g.NumEdges())
	}
	if w, ok := g.EdgeWeight(0, 1); !ok || w != 3 {
		t.Fatalf("EdgeWeight = (%v,%v), want (3,true)", w, ok)
	}
}

func TestBuildEmptyGraph(t *testing.T) {
	if _, err := NewBuilder(0).Build(); err == nil {
		t.Fatal("empty graph accepted")
	}
}

func TestLowerBoundAdmissibleWithTravelTimeWeights(t *testing.T) {
	// Two nodes 10 apart with weight 2 ("fast" edge): invSpeed = 0.2, so
	// the lower bound of any pair must not exceed its true distance.
	b := NewBuilder(3)
	x := []float64{0, 10, 20}
	y := []float64{0, 0, 0}
	if err := b.SetCoords(x, y); err != nil {
		t.Fatal(err)
	}
	_ = b.AddEdge(0, 1, 2)  // speed 5
	_ = b.AddEdge(1, 2, 10) // speed 1
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if lb := g.LowerBound(0, 2); lb > 12 {
		t.Fatalf("LowerBound(0,2) = %v exceeds true distance 12", lb)
	}
	if lb := g.LowerBound(0, 1); lb > 2 {
		t.Fatalf("LowerBound(0,1) = %v exceeds true distance 2", lb)
	}
	if g.ScaleEuclid(10) != g.LowerBound(0, 1) {
		t.Fatalf("ScaleEuclid inconsistent with LowerBound")
	}
}

func TestLowerBoundWithoutCoords(t *testing.T) {
	g := tinyGraph(t)
	if g.HasCoords() {
		t.Fatal("tinyGraph should have no coords")
	}
	if g.LowerBound(0, 2) != 0 || g.ScaleEuclid(5) != 0 {
		t.Fatal("lower bounds without coords must be 0")
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	g := tinyGraph(t)
	edges := g.Edges(nil)
	if len(edges) != g.NumEdges() {
		t.Fatalf("Edges returned %d, want %d", len(edges), g.NumEdges())
	}
	for _, e := range edges {
		if e.U >= e.V {
			t.Fatalf("edge not canonical: %+v", e)
		}
		if w, ok := g.EdgeWeight(e.U, e.V); !ok || w != e.W {
			t.Fatalf("edge %+v missing from graph", e)
		}
	}
}

func TestNodeSet(t *testing.T) {
	s := NewNodeSet(10)
	s.Add(3, 7)
	s.Add(5, 1)
	s.Add(3, 9) // overwrite payload
	if !s.Contains(3) || !s.Contains(5) || s.Contains(4) {
		t.Fatal("membership wrong")
	}
	if v, ok := s.Value(3); !ok || v != 9 {
		t.Fatalf("Value(3) = (%d,%v), want (9,true)", v, ok)
	}
	s.Reset()
	if s.Contains(3) || s.Contains(5) {
		t.Fatal("Reset did not clear set")
	}
	s.AddAll([]NodeID{8, 2})
	if v, _ := s.Value(2); v != 1 {
		t.Fatalf("AddAll payload = %d, want 1", v)
	}
}

func TestConnectedComponents(t *testing.T) {
	b := NewBuilder(6)
	_ = b.AddEdge(0, 1, 1)
	_ = b.AddEdge(1, 2, 1)
	_ = b.AddEdge(3, 4, 1)
	// node 5 isolated
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	labels, count := ConnectedComponents(g)
	if count != 3 {
		t.Fatalf("components = %d, want 3", count)
	}
	if labels[0] != labels[1] || labels[1] != labels[2] {
		t.Fatal("nodes 0,1,2 should share a component")
	}
	if labels[3] != labels[4] || labels[3] == labels[0] || labels[5] == labels[0] || labels[5] == labels[3] {
		t.Fatal("component labels wrong")
	}
}

func TestLargestComponent(t *testing.T) {
	b := NewBuilder(6)
	x := []float64{0, 1, 2, 10, 11, 20}
	y := make([]float64, 6)
	if err := b.SetCoords(x, y); err != nil {
		t.Fatal(err)
	}
	_ = b.AddEdge(0, 1, 1)
	_ = b.AddEdge(1, 2, 1)
	_ = b.AddEdge(3, 4, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sub, orig, err := LargestComponent(g)
	if err != nil {
		t.Fatal(err)
	}
	if sub.NumNodes() != 3 || sub.NumEdges() != 2 {
		t.Fatalf("LCC has %d nodes %d edges, want 3 and 2", sub.NumNodes(), sub.NumEdges())
	}
	for newV, oldV := range orig {
		nx, _ := sub.Coord(NodeID(newV))
		ox, _ := g.Coord(oldV)
		if nx != ox {
			t.Fatalf("coords not carried over for node %d", newV)
		}
	}
	if _, count := ConnectedComponents(sub); count != 1 {
		t.Fatal("LCC not connected")
	}
}

func TestLargestComponentAlreadyConnected(t *testing.T) {
	g := tinyGraph(t)
	sub, orig, err := LargestComponent(g)
	if err != nil {
		t.Fatal(err)
	}
	if sub != g || orig != nil {
		t.Fatal("connected graph should be returned unchanged")
	}
}
