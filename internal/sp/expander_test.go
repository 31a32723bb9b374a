package sp_test

import (
	"fmt"
	"math"
	"testing"

	"fannr/internal/difftest"
	"fannr/internal/graph"
	"fannr/internal/sp"
)

// checkLane steps a lane and the map-backed reference started from the
// same source side by side, up to steps settles: the same node, the
// same distance bits and the same settle count after every Step, and
// the same exhaustion.
func checkLane(t *testing.T, label string, lane *sp.Expander, ref *difftest.MapExpander, steps int) {
	t.Helper()
	for i := 0; i < steps; i++ {
		v, d, ok := lane.Step()
		wv, wd, wok := ref.Step()
		if ok != wok || v != wv || math.Float64bits(d) != math.Float64bits(wd) {
			t.Fatalf("%s: step %d = (%d, %v, %v), reference (%d, %v, %v)", label, i, v, d, ok, wv, wd, wok)
		}
		if lane.NodesScanned() != ref.NodesScanned() {
			t.Fatalf("%s: %d nodes settled after step %d, reference %d", label, lane.NodesScanned(), i, ref.NodesScanned())
		}
		if !ok {
			return
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
// corpus — the four graphs and the query points of 320 seeded cases of
// TestDifferentialVsBrute — and of a two-component graph against the
// map-backed reference, each to exhaustion. The lanes are pooled across
// all of it, the way a Scratch pools them: every case after the first
// re-arms, by Start, a lane still warm from another source and (at each
// graph boundary, after Reset) another graph.
func TestExpanderMatchesReference(t *testing.T) {
	var lanes []*sp.Expander
	run := func(label string, g *graph.Graph, Q []graph.NodeID) {
		for len(lanes) < len(Q) {
			lanes = append(lanes, new(sp.Expander))
		}
		for i, src := range Q {
			lanes[i].Reset(g)
			lanes[i].Start(src)
			checkLane(t, fmt.Sprintf("%s lane %d (src %d)", label, i, src), lanes[i], difftest.NewMapExpander(g, src), math.MaxInt)
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
			run(c.String(), g, c.Q)
		}
	}
	g := twoComponents(t)
	run("two components", g, []graph.NodeID{0, 35, 40, 71})
	run("two components, other sources", g, []graph.NodeID{0, 17, 36})
}

// TestExpanderEpochWrap puts a warm lane's label table on the brink of
// its epoch wrap — with clean slots, and with every slot stamped live and
// settled under the last epoch, which is what must not leak into the
// epoch the table restarts under — and checks the next Starts against
// the reference.
func TestExpanderEpochWrap(t *testing.T) {
	g, err := graph.Generate(graph.GenConfig{Nodes: 300, Seed: 41, Name: "wrap"})
	if err != nil {
		t.Fatal(err)
	}
	const last = 1<<31 - 1
	for _, start := range []uint32{last - 2, last - 1, last} {
		for _, fill := range []bool{false, true} {
			lane := new(sp.Expander)
			lane.Reset(g)
			lane.Start(0)
			for _, _, ok := lane.Step(); ok; _, _, ok = lane.Step() { // grow the table
			}
			lane.SetTableEpoch(start, fill)
			for round := 0; round < 4; round++ {
				src := graph.NodeID((7 + 31*round) % g.NumNodes())
				lane.Start(src)
				checkLane(t, fmt.Sprintf("epoch %d fill=%v round %d", start, fill, round), lane, difftest.NewMapExpander(g, src), math.MaxInt)
			}
			if e := lane.TableEpoch(); e > 8 {
				t.Fatalf("table epoch %d did not wrap from %d", e, start)
			}
		}
	}
}

// TestExpanderHandsBackLargeTable: a lane that labelled a whole graph
// outgrows what a pooled lane may keep, and gives the table up at its
// next Start; the small expansion after it runs in a small table and is
// still right.
func TestExpanderHandsBackLargeTable(t *testing.T) {
	g, err := graph.Generate(graph.GenConfig{Nodes: 12_000, Seed: 5, Name: "retain"})
	if err != nil {
		t.Fatal(err)
	}
	lane := new(sp.Expander)
	lane.Reset(g)
	lane.Start(0)
	for _, _, ok := lane.Step(); ok; _, _, ok = lane.Step() {
	}
	if lane.TableSlots() <= sp.MaxRetainedSlots {
		t.Fatalf("whole-graph expansion of %d nodes fit %d slots; the test needs a larger graph", lane.NodesScanned(), lane.TableSlots())
	}
	lane.Start(1)
	checkLane(t, "small expansion after a whole-graph one", lane, difftest.NewMapExpander(g, 1), 8)
	if lane.TableSlots() > sp.MaxRetainedSlots {
		t.Fatalf("lane kept %d slots across Start, cap %d", lane.TableSlots(), sp.MaxRetainedSlots)
	}
}
