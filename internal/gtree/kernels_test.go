package gtree

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"fannr/internal/graph"
	"fannr/internal/sp"
)

// islandGraph is a road network plus a six-vertex chain no edge connects
// to it, so some border vectors are all +Inf and some leaves have no
// borders at all.
func islandGraph(t testing.TB, n int, seed int64) *graph.Graph {
	t.Helper()
	base := roadNetwork(t, n, seed)
	n = base.NumNodes()
	const island = 6
	b := graph.NewBuilder(n + island)
	x, y := make([]float64, n+island), make([]float64, n+island)
	for v := 0; v < n; v++ {
		x[v], y[v] = base.Coord(graph.NodeID(v))
	}
	for i := 0; i < island; i++ {
		x[n+i], y[n+i] = 1e6+float64(i), 1e6
	}
	if err := b.SetCoords(x, y); err != nil {
		t.Fatal(err)
	}
	edges := base.Edges(nil)
	for i := 1; i < island; i++ {
		edges = append(edges, graph.Edge{U: graph.NodeID(n + i - 1), V: graph.NodeID(n + i), W: 1})
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
	return g
}

// finiteSorted returns the finite entries of d in ascending order.
func finiteSorted(d []float64) []float64 {
	var out []float64
	for _, v := range d {
		if !math.IsInf(v, 1) {
			out = append(out, v)
		}
	}
	sort.Float64s(out)
	return out
}

// buildUnrefined is Build stopped before the top-down refinement. Its
// matrices hold within-subtree distances, so every query answer is an
// upper bound on the true distance: the check on the bottom-up assembly
// that refinement would otherwise mask.
func buildUnrefined(g *graph.Graph, opt Options) *Tree {
	opt.defaults()
	t := &Tree{
		g:         g,
		opt:       opt,
		leafOf:    make([]int32, g.NumNodes()),
		posInLeaf: make([]int32, g.NumNodes()),
		leafSeq:   make([]int32, g.NumNodes()),
	}
	t.partition()
	t.assignSequences()
	t.computeBorders()
	t.buildLeafMatrices(1)
	t.assembleBottomUp(1)
	t.flatten()
	return t
}

// TestKernelsMatchDijkstra drives the three query entry points over
// every tree shape the offset arithmetic has to survive: deep binary
// trees with 4-vertex leaves up to a flat 8-way split, disconnected
// components, BFS-order partitions, and the degenerate single leaf.
func TestKernelsMatchDijkstra(t *testing.T) {
	const tol = 1e-6
	graphs := []struct {
		name    string
		g       *graph.Graph
		unrefed bool
	}{
		{"connected", roadNetwork(t, 400, 51), false},
		{"island", islandGraph(t, 300, 52), false},
		{"no-coordinates", noCoordGraph(t, roadNetwork(t, 300, 53)), false},
		{"single-leaf", roadNetwork(t, 4, 54), false},
		{"skip-refinement", roadNetwork(t, 400, 55), true},
	}
	for _, gc := range graphs {
		for _, fanout := range []int{2, 4, 8} {
			for _, tau := range []int{4, 16, 128} {
				t.Run(fmt.Sprintf("%s/f=%d/tau=%d", gc.name, fanout, tau), func(t *testing.T) {
					g := gc.g
					if gc.name == "single-leaf" && g.NumNodes() > tau {
						t.Fatalf("graph of %d vertices does not fit one leaf", g.NumNodes())
					}
					opt := Options{Fanout: fanout, MaxLeafSize: tau}
					var tr *Tree
					if gc.unrefed {
						tr = buildUnrefined(g, opt)
					} else {
						var err error
						if tr, err = Build(g, opt); err != nil {
							t.Fatal(err)
						}
					}
					n := g.NumNodes()
					q := tr.NewQuerier()
					ref := sp.NewDijkstra(g)
					rng := rand.New(rand.NewSource(int64(fanout*1000 + tau)))
					check := func(what string, got, want float64) {
						t.Helper()
						switch {
						case gc.unrefed && got < want-tol:
							t.Fatalf("%s = %v below the true %v — not an upper bound", what, got, want)
						case !gc.unrefed && !(math.Abs(got-want) <= tol || got == want):
							t.Fatalf("%s = %v, want %v", what, got, want)
						}
					}
					for i := 0; i < 40; i++ {
						u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
						check(fmt.Sprintf("Dist(%d,%d)", u, v), q.Dist(u, v), ref.Dist(u, v))
					}
					for i := 0; i < 6; i++ {
						u := graph.NodeID(rng.Intn(n))
						Q := make([]graph.NodeID, 1+rng.Intn(min(n, 24)))
						for j, v := range rng.Perm(n)[:len(Q)] {
							Q[j] = graph.NodeID(v)
						}
						batch := make([]float64, len(Q))
						q.DistBatch(u, Q, batch)
						want := make([]float64, len(Q))
						for j, v := range Q {
							want[j] = ref.Dist(u, v)
							check(fmt.Sprintf("DistBatch(%d)[%d]", u, v), batch[j], want[j])
						}
						nn := q.KNN(u, tr.NewObjectSet(Q), len(Q), nil)
						reach := finiteSorted(want)
						if gc.unrefed {
							continue // KNN order follows the bounds, not the truth
						}
						if len(nn) != len(reach) {
							t.Fatalf("KNN(%d) returned %d neighbours, %d are reachable", u, len(nn), len(reach))
						}
						// On refined trees KNN and DistBatch fold the same border
						// vectors into the same leaf rows: not close, identical.
						for j, d := range finiteSorted(batch) {
							check(fmt.Sprintf("KNN(%d)[%d]", u, j), nn[j].Dist, reach[j])
							if math.Float64bits(nn[j].Dist) != math.Float64bits(d) {
								t.Fatalf("KNN(%d)[%d] = %v, sorted DistBatch has %v", u, j, nn[j].Dist, d)
							}
						}
					}
				})
			}
		}
	}
}

// TestBorderVectorsIgnoreOccupancy pins the occupancy-restricted search:
// KNN computes border vectors only for tree nodes that hold objects, yet
// every vector it does compute is bit-identical to the one an exhaustive
// pass over all tree nodes (in the opposite order) produces, and so are
// the answers.
func TestBorderVectorsIgnoreOccupancy(t *testing.T) {
	g := roadNetwork(t, 900, 61)
	tr, err := Build(g, Options{Fanout: 4, MaxLeafSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	var leaves []int32
	for i := range tr.nodes {
		if tr.nodes[i].isLeaf() {
			leaves = append(leaves, int32(i))
		}
	}
	rng := rand.New(rand.NewSource(62))
	for trial := 0; trial < 12; trial++ {
		src := graph.NodeID(rng.Intn(g.NumNodes()))
		var everyLeaf []graph.NodeID
		for _, l := range leaves {
			everyLeaf = append(everyLeaf, tr.nodes[l].verts[0])
		}
		for _, qc := range []struct {
			name   string
			Q      []graph.NodeID
			narrow bool
		}{
			{"one-leaf", tr.nodes[leaves[rng.Intn(len(leaves))]].verts, true},
			{"source-leaf", tr.nodes[tr.leafOf[src]].verts, true},
			{"every-leaf", everyLeaf, false},
		} {
			restricted, full := tr.NewQuerier(), tr.NewQuerier()
			nn := restricted.KNN(src, tr.NewObjectSet(qc.Q), len(qc.Q), nil)
			full.setSource(src)
			for ni := int32(len(tr.nodes)) - 1; ni >= 0; ni-- {
				full.borderVec(ni)
			}
			if qc.narrow && 2*len(restricted.touched) > len(tr.nodes) {
				t.Fatalf("%s: KNN filled %d of %d border vectors — the search is not restricted to occupied nodes",
					qc.name, len(restricted.touched), len(tr.nodes))
			}
			for _, ni := range restricted.touched {
				a, b := restricted.vecs[ni], full.vecs[ni]
				for j := range a {
					if math.Float64bits(a[j]) != math.Float64bits(b[j]) {
						t.Fatalf("%s: src %d node %d border %d: restricted %v, exhaustive %v", qc.name, src, ni, j, a[j], b[j])
					}
				}
			}
			batch := make([]float64, len(qc.Q))
			full.DistBatch(src, qc.Q, batch)
			for j, d := range finiteSorted(batch) {
				if math.Float64bits(nn[j].Dist) != math.Float64bits(d) {
					t.Fatalf("%s: src %d KNN[%d] = %v, exhaustive DistBatch has %v", qc.name, src, j, nn[j].Dist, d)
				}
			}
		}
	}
}

// TestWarmQueriesDoNotAllocate: once a Querier's arena, heaps and result
// buffer have grown to a workload, replaying it costs no allocation —
// sources alternate so every call rebuilds its border vectors.
func TestWarmQueriesDoNotAllocate(t *testing.T) {
	g := roadNetwork(t, 1200, 71)
	tr, err := Build(g, Options{MaxLeafSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(72))
	Q := make([]graph.NodeID, 48)
	for i := range Q {
		Q[i] = graph.NodeID(rng.Intn(g.NumNodes()))
	}
	srcs := []graph.NodeID{3, 500, 1100, 250}
	objs := tr.NewObjectSet(Q)
	q := tr.NewQuerier()
	out := make([]float64, len(Q))
	var nn []sp.Neighbor
	for name, run := range map[string]func(){
		"Dist": func() {
			for _, s := range srcs {
				q.Dist(s, Q[0])
			}
		},
		"DistBatch": func() {
			for _, s := range srcs {
				q.DistBatch(s, Q, out)
			}
		},
		"KNN": func() {
			for _, s := range srcs {
				nn = q.KNN(s, objs, 12, nn[:0])
			}
		},
		"ObjectSet.Reset": func() { objs.Reset(Q) },
	} {
		run() // warm
		if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
			t.Errorf("warm %s allocates %v times per run, want 0", name, allocs)
		}
	}
}
