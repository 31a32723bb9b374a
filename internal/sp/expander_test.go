package sp_test

import (
	"fmt"
	"math"
	"testing"

	"fannr/internal/difftest"
	"fannr/internal/graph"
	"fannr/internal/sp"
)

// checkLane drains a lane and the map-backed reference started from the
// same source side by side: same (node, distance bits) report for
// report, same settle count after every report, same exhaustion, and in
// the end the same SettledDist for every node of the graph.
func checkLane(t *testing.T, label string, g *graph.Graph, lane *sp.Expander, ref *difftest.MapExpander) {
	t.Helper()
	for i := 0; ; i++ {
		want, wantOK := ref.Next()
		got, gotOK := lane.Next()
		if gotOK != wantOK || got.Node != want.Node || math.Float64bits(got.Dist) != math.Float64bits(want.Dist) {
			t.Fatalf("%s: report %d = (%+v, %v), reference (%+v, %v)", label, i, got, gotOK, want, wantOK)
		}
		if lane.NodesScanned() != ref.NodesScanned() {
			t.Fatalf("%s: %d nodes settled after report %d, reference %d", label, lane.NodesScanned(), i, ref.NodesScanned())
		}
		if !wantOK {
			break
		}
	}
	for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
		want, wantOK := ref.SettledDist(v)
		got, gotOK := lane.SettledDist(v)
		if gotOK != wantOK || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: SettledDist(%d) = (%v, %v), reference (%v, %v)", label, v, got, gotOK, want, wantOK)
		}
	}
}

// twoComponents is two disjoint 6 × 6 unit grids: a lane started in one
// never labels the other, and most distances tie.
func twoComponents(t *testing.T) *graph.Graph {
	t.Helper()
	const side, half = 6, 36
	b := graph.NewBuilder(2 * half)
	for c := 0; c < 2; c++ {
		for v := 0; v < half; v++ {
			id := graph.NodeID(c*half + v)
			if v%side+1 < side {
				_ = b.AddEdge(id, id+1, 1)
			}
			if v+side < half {
				_ = b.AddEdge(id, id+side, 1)
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestExpanderMatchesReference runs every lane of the differential
// corpus — the four graphs and 320 seeded (P, Q) of
// TestDifferentialVsBrute — and of a two-component graph against the
// map-backed reference. The lanes are pooled across all of it, the way a
// Scratch pools them: every case after the first re-arms, by Reset, a
// lane still warm from another source, another report set and (at each
// graph boundary) another graph.
func TestExpanderMatchesReference(t *testing.T) {
	var lanes []*sp.Expander
	run := func(label string, g *graph.Graph, P, Q []graph.NodeID) {
		report := graph.NewNodeSet(g.NumNodes())
		report.AddAll(P)
		for len(lanes) < len(Q) {
			lanes = append(lanes, new(sp.Expander))
		}
		for i, src := range Q {
			lanes[i].Reset(g, src, report)
			if lanes[i].Source() != src {
				t.Fatalf("%s: lane %d bound to %d, want %d", label, i, lanes[i].Source(), src)
			}
			checkLane(t, fmt.Sprintf("%s lane %d (src %d)", label, i, src), g, lanes[i], difftest.NewMapExpander(g, src, report))
		}
	}
	for _, spec := range []struct {
		nodes int
		seed  int64
	}{{180, 11}, {260, 12}, {340, 13}, {420, 14}} {
		g, err := graph.Generate(graph.GenConfig{Nodes: spec.nodes, Seed: spec.seed, Name: fmt.Sprintf("diff-%d", spec.seed)})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 80; i++ {
			c := difftest.GenCase(spec.seed*10_000+int64(i), g)
			run(c.String(), g, c.P, c.Q)
		}
	}
	g := twoComponents(t)
	run("two components", g, []graph.NodeID{3, 20, 35, 36, 50, 71}, []graph.NodeID{0, 35, 40, 71})
	run("two components, P across the gap", g, []graph.NodeID{40, 41, 70}, []graph.NodeID{0, 17, 36})
}

// TestExpanderEpochWrap puts a warm lane's label table on the brink of
// its epoch wrap — with clean slots, and with every slot stamped live and
// settled under the last epoch, which is what must not leak into the
// epoch the table restarts under — and checks the next Resets against
// the reference.
func TestExpanderEpochWrap(t *testing.T) {
	g, err := graph.Generate(graph.GenConfig{Nodes: 300, Seed: 41, Name: "wrap"})
	if err != nil {
		t.Fatal(err)
	}
	report := graph.NewNodeSet(g.NumNodes())
	for v := 0; v < g.NumNodes(); v += 9 {
		report.Add(graph.NodeID(v), 0)
	}
	const last = 1<<31 - 1
	for _, start := range []uint32{last - 2, last - 1, last} {
		for _, fill := range []bool{false, true} {
			lane := sp.NewExpander(g, 0, report)
			for _, ok := lane.Next(); ok; _, ok = lane.Next() { // grow the table
			}
			lane.SetTableEpoch(start, fill)
			for round := 0; round < 4; round++ {
				src := graph.NodeID((7 + 31*round) % g.NumNodes())
				lane.Reset(g, src, report)
				checkLane(t, fmt.Sprintf("epoch %d fill=%v round %d", start, fill, round), g, lane, difftest.NewMapExpander(g, src, report))
			}
			if e := lane.TableEpoch(); e > 8 {
				t.Fatalf("table epoch %d did not wrap from %d", e, start)
			}
		}
	}
}

// TestExpanderHandsBackLargeTable: a lane that labelled a whole graph
// outgrows what a pooled lane may keep, and gives the table up at its
// next Reset; the small expansion after it runs in a small table and is
// still right.
func TestExpanderHandsBackLargeTable(t *testing.T) {
	g, err := graph.Generate(graph.GenConfig{Nodes: 12_000, Seed: 5, Name: "retain"})
	if err != nil {
		t.Fatal(err)
	}
	far := graph.NewNodeSet(g.NumNodes()) // empty: the lane settles all it can reach
	lane := sp.NewExpander(g, 0, far)
	if _, ok := lane.Next(); ok {
		t.Fatal("empty report set reported a node")
	}
	if lane.TableSlots() <= sp.MaxRetainedSlots {
		t.Fatalf("whole-graph expansion of %d nodes fit %d slots; the test needs a larger graph", lane.NodesScanned(), lane.TableSlots())
	}
	near := graph.NewNodeSet(g.NumNodes())
	nbrs, _ := g.Neighbors(1)
	near.Add(nbrs[0], 0)
	lane.Reset(g, 1, near)
	ref := difftest.NewMapExpander(g, 1, near)
	got, _ := lane.Next()
	if want, _ := ref.Next(); got != want || lane.NodesScanned() != ref.NodesScanned() {
		t.Fatalf("small expansion after a whole-graph one: (%+v, %d settled), reference (%+v, %d)", got, lane.NodesScanned(), want, ref.NodesScanned())
	}
	if lane.TableSlots() > sp.MaxRetainedSlots {
		t.Fatalf("lane kept %d slots across Reset, cap %d", lane.TableSlots(), sp.MaxRetainedSlots)
	}
}
