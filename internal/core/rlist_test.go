package core

import (
	"math"
	"math/rand"
	"testing"

	"fannr/internal/graph"
	"fannr/internal/sp"
)

// drainLanes pops every head of the lane pool armed for P and Q, and
// returns the data points in pop order with the distance each was
// surfaced at.
func drainLanes(g *graph.Graph, P, Q []graph.NodeID) []sp.Neighbor {
	q := Query{P: P, Q: Q, Scratch: NewScratch()}
	pool := q.expanders(g, graph.NewNodeSet(g.NumNodes()))
	var out []sp.Neighbor
	for pool.meta.Len() > 0 {
		d := pool.heads[pool.meta.Min().Value].Dist
		p, _ := pool.pop()
		out = append(out, sp.Neighbor{Node: p, Dist: d})
	}
	return out
}

// TestExpanderReportsInOrder: one lane surfaces every member of P, each
// once, nearest first, at its network distance from the source.
func TestExpanderReportsInOrder(t *testing.T) {
	g, err := graph.Generate(graph.GenConfig{Nodes: 150, Seed: 10, Name: "lane"})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(20))
	seen := map[graph.NodeID]bool{}
	var members []graph.NodeID
	for len(members) < 25 {
		v := graph.NodeID(rng.Intn(g.NumNodes()))
		if !seen[v] {
			seen[v] = true
			members = append(members, v)
		}
	}
	src := graph.NodeID(3)
	all := sp.NewDijkstra(g).All(src)
	got := drainLanes(g, members, []graph.NodeID{src})
	if len(got) != len(members) {
		t.Fatalf("lane surfaced %d data points, want %d", len(got), len(members))
	}
	reported := map[graph.NodeID]bool{}
	prev := -1.0
	for i, nb := range got {
		if reported[nb.Node] {
			t.Fatalf("node %d reported twice", nb.Node)
		}
		reported[nb.Node] = true
		if nb.Dist < prev {
			t.Fatalf("report %d: %v after %v, not nearest first", i, nb.Dist, prev)
		}
		if math.Abs(nb.Dist-all[nb.Node]) > 1e-9 {
			t.Fatalf("report %d: node %d at %v, true distance %v", i, nb.Node, nb.Dist, all[nb.Node])
		}
		prev = nb.Dist
	}
}

// TestExpanderSelfReport: a source in P is reported first, at distance
// 0, and is all its lane reports when it is all of P.
func TestExpanderSelfReport(t *testing.T) {
	g, err := graph.Generate(graph.GenConfig{Nodes: 30, Seed: 12, Name: "lane"})
	if err != nil {
		t.Fatal(err)
	}
	got := drainLanes(g, []graph.NodeID{5}, []graph.NodeID{5})
	if len(got) != 1 || got[0].Node != 5 || got[0].Dist != 0 {
		t.Fatalf("source in P: lane reported %+v, want only itself at 0", got)
	}
}
