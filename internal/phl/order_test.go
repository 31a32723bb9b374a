package phl

import (
	"bytes"
	"math"
	"runtime"
	"testing"

	"fannr/internal/graph"
	"fannr/internal/pqueue"
	"fannr/internal/sp"
	"fannr/internal/workload"
)

// buildReference is Build's labelling loop as it stood before the prune
// check lost its stamp table — the root's label scattered into a
// (value, stamp) pair of tables, a hub counted only while its stamp is
// the current epoch — run over a hub order the caller supplies. It is
// the reference TestBuildMatchesReference holds Build against: under one
// order the two must produce the same labels bit for bit, so only the
// order can explain a change in label size.
func buildReference(g *graph.Graph, order []graph.NodeID) *Index {
	n := g.NumNodes()
	rank := make([]int32, n)
	for r, v := range order {
		rank[v] = int32(r)
	}
	hubs := make([][]int32, n)
	dists := make([][]float64, n)
	h := pqueue.NewIndexedHeap(n)
	dist := make([]float64, n)
	stamp := make([]uint32, n)
	var epoch uint32
	tmp := make([]float64, n)
	tmpStamp := make([]uint32, n)
	for r := 0; r < n; r++ {
		root := order[r]
		epoch++
		for i, hub := range hubs[root] {
			tmp[hub] = dists[root][i]
			tmpStamp[hub] = epoch
		}
		h.Reset()
		stamp[root] = epoch
		dist[root] = 0
		h.Update(root, 0)
		for h.Len() > 0 {
			v, dv := h.Pop()
			pruned := false
			hv := hubs[v]
			dvs := dists[v]
			for i, hub := range hv {
				if tmpStamp[hub] == epoch && tmp[hub]+dvs[i] <= dv {
					pruned = true
					break
				}
			}
			if pruned {
				continue
			}
			hubs[v] = append(hubs[v], int32(r))
			dists[v] = append(dists[v], dv)
			nbrs, ws := g.Neighbors(v)
			for i, u := range nbrs {
				du := dv + ws[i]
				if stamp[u] != epoch || du < dist[u] {
					stamp[u] = epoch
					dist[u] = du
					h.Update(u, du)
				}
			}
		}
	}
	ix := &Index{rank: rank, n: n, off: make([]int64, n+1)}
	for v := 0; v < n; v++ {
		ix.off[v+1] = ix.off[v] + int64(len(hubs[v]))
		ix.hubSlab = append(ix.hubSlab, hubs[v]...)
		ix.distSlab = append(ix.distSlab, dists[v]...)
	}
	return ix
}

// orderOf inverts ix's rank table into the hub order that produced it.
func orderOf(ix *Index) []graph.NodeID {
	order := make([]graph.NodeID, ix.n)
	for v, r := range ix.rank {
		order[r] = graph.NodeID(v)
	}
	return order
}

func loadNW(t testing.TB, scale float64) *graph.Graph {
	t.Helper()
	g, err := workload.LoadDataset("NW", scale)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func mustBuild(t testing.TB, g *graph.Graph) *Index {
	t.Helper()
	ix, err := Build(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// TestBuildMatchesReference: under the rank table Build itself produced,
// the stamped-table loop writes the same offsets, hubs and distance bits
// — the one-table prune check changes no label. And a build has no
// source of variation: two of them, on one scheduler thread and on two,
// save identical bytes.
func TestBuildMatchesReference(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"random":   randomGraph(t, 200, 51),
		"islands":  islandGraph(t, 150, 52),
		"unitgrid": unitGrid(t, 12),
		"road":     loadNW(t, 1.0/256),
	} {
		t.Run(name, func(t *testing.T) {
			ix := mustBuild(t, g)
			ref := buildReference(g, orderOf(ix))
			if len(ix.off) != len(ref.off) || ix.Entries() != ref.Entries() {
				t.Fatalf("Build wrote %d entries over %d nodes, the reference %d over %d",
					ix.Entries(), len(ix.off)-1, ref.Entries(), len(ref.off)-1)
			}
			for v := range ix.off {
				if ix.off[v] != ref.off[v] {
					t.Fatalf("off[%d] = %d, reference %d", v, ix.off[v], ref.off[v])
				}
			}
			for i := range ix.hubSlab {
				if ix.hubSlab[i] != ref.hubSlab[i] || math.Float64bits(ix.distSlab[i]) != math.Float64bits(ref.distSlab[i]) {
					t.Fatalf("entry %d = (%d, %v), reference (%d, %v)",
						i, ix.hubSlab[i], ix.distSlab[i], ref.hubSlab[i], ref.distSlab[i])
				}
			}

			var first bytes.Buffer
			if err := ix.Save(&first); err != nil {
				t.Fatal(err)
			}
			for _, procs := range []int{1, 2} {
				prev := runtime.GOMAXPROCS(procs)
				var again bytes.Buffer
				err := mustBuild(t, g).Save(&again)
				runtime.GOMAXPROCS(prev)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(first.Bytes(), again.Bytes()) {
					t.Fatalf("a second Build at GOMAXPROCS %d saved different bytes", procs)
				}
			}
		})
	}
}

// TestLabelSizeOnRoadNetwork gates what the hub order is for. Entry
// counts do not depend on the host: degree order with ties by node id
// gave 74.7 entries per node on NW 1/256 and 116.5 on NW 1/64, ties by
// tree weight give 53.2 and 79.5.
func TestLabelSizeOnRoadNetwork(t *testing.T) {
	type gate struct{ scale, max float64 }
	cases := []gate{{1.0 / 256, 58}}
	if !testing.Short() {
		cases = append(cases, gate{1.0 / 64, 84})
	}
	for _, c := range cases {
		g := loadNW(t, c.scale)
		if avg := mustBuild(t, g).AvgLabelSize(); avg > c.max {
			t.Errorf("NW at scale 1/%.0f (%d nodes): %.1f label entries per node, want at most %.0f",
				1/c.scale, g.NumNodes(), avg, c.max)
		}
	}
}

// referenceTreeWeights recomputes treeWeights the slow way: an
// array-scan Dijkstra per root, then every reached vertex walks its
// parent chain and adds itself to each ancestor.
func referenceTreeWeights(g *graph.Graph, roots []graph.NodeID) []int64 {
	n := g.NumNodes()
	weight := make([]int64, n)
	for _, root := range roots {
		dist := make([]float64, n)
		parent := make([]graph.NodeID, n)
		done := make([]bool, n)
		for i := range dist {
			dist[i] = math.Inf(1)
		}
		dist[root], parent[root] = 0, root
		for {
			v := graph.NodeID(-1)
			for u := range dist {
				if !done[u] && !math.IsInf(dist[u], 1) && (v < 0 || dist[u] < dist[v]) {
					v = graph.NodeID(u)
				}
			}
			if v < 0 {
				break
			}
			done[v] = true
			nbrs, ws := g.Neighbors(v)
			for i, u := range nbrs {
				if d := dist[v] + ws[i]; d < dist[u] {
					dist[u], parent[u] = d, v
				}
			}
		}
		for v := range done {
			if done[v] {
				for a := graph.NodeID(v); a != root; a = parent[a] {
					weight[parent[a]]++
				}
			}
		}
	}
	return weight
}

func edgeGraph(t testing.TB, n int, edges []graph.Edge) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(n)
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

// TestHubOrderEdgeCases runs the sampler and the order where their
// arithmetic is thinnest. A graph cannot have no nodes (graph.Builder
// refuses) or a weight ≤ 0, so those two are met at the nearest thing
// that can exist: sampleRoots(0), and edges of weight 1e-300, which
// vanish when added to a distance of 1 and leave a parent and its child
// at the same key.
func TestHubOrderEdgeCases(t *testing.T) {
	if roots := sampleRoots(0); len(roots) != 0 {
		t.Fatalf("sampleRoots(0) = %v, want none", roots)
	}
	for _, n := range []int{1, 2, 5, 15, 16, 17, 1000} {
		roots := sampleRoots(n)
		if want := min(n, sampleTrees); len(roots) != want {
			t.Fatalf("sampleRoots(%d) = %v, want %d distinct ids", n, roots, want)
		}
		for i, r := range roots {
			if r < 0 || int(r) >= n || (i > 0 && r <= roots[i-1]) {
				t.Fatalf("sampleRoots(%d) = %v: not increasing ids below n", n, roots)
			}
		}
	}

	// Everything but node 0 of the caterpillar is at distance 1 from it
	// in float64: 0 —1— {1, 2}, then 1 — 3 — 5 and 2 — 4 by featherweight
	// edges. The graph is a tree, so every sampled tree is the graph
	// itself whichever way the heap breaks the tie.
	const feather = 1e-300
	caterpillar := edgeGraph(t, 6, []graph.Edge{
		{U: 0, V: 1, W: 1}, {U: 0, V: 2, W: 1},
		{U: 1, V: 3, W: feather}, {U: 3, V: 5, W: feather}, {U: 2, V: 4, W: feather},
	})
	// n = 40 puts the sampled roots at 1, 3, 6, 8, 11, 13, …: the 4-cycle
	// 4 – 5 – 9 – 10 holds none of them. The rest is a path in id order.
	var edges []graph.Edge
	rest := []graph.NodeID{}
	for v := graph.NodeID(0); v < 40; v++ {
		if v != 4 && v != 5 && v != 9 && v != 10 {
			rest = append(rest, v)
		}
	}
	for i := 1; i < len(rest); i++ {
		edges = append(edges, graph.Edge{U: rest[i-1], V: rest[i], W: 2})
	}
	edges = append(edges, graph.Edge{U: 4, V: 5, W: 1}, graph.Edge{U: 5, V: 9, W: 1},
		graph.Edge{U: 9, V: 10, W: 1}, graph.Edge{U: 10, V: 4, W: 1})
	unsampled := edgeGraph(t, 40, edges)

	for name, g := range map[string]*graph.Graph{
		"one node":    edgeGraph(t, 1, nil),
		"two nodes":   edgeGraph(t, 2, []graph.Edge{{U: 0, V: 1, W: 3}}),
		"no edges":    edgeGraph(t, 7, nil),
		"n < 16":      randomGraph(t, 11, 61),
		"caterpillar": caterpillar,
		"unsampled":   unsampled,
		"random":      randomGraph(t, 63, 62),
		"islands":     islandGraph(t, 50, 63),
	} {
		t.Run(name, func(t *testing.T) {
			n := g.NumNodes()
			h := pqueue.NewIndexedHeap(n)
			roots := sampleRoots(n)
			got, want := treeWeights(g, roots, h), referenceTreeWeights(g, roots)
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("treeWeights[%d] = %d, reference %d (roots %v)", v, got[v], want[v], roots)
				}
			}
			if h.Len() != 0 {
				t.Fatalf("treeWeights left %d ids in the caller's heap", h.Len())
			}
			order := hubOrder(g, h)
			for i := 1; i < n; i++ {
				u, v := order[i-1], order[i]
				du, dv := g.Degree(u), g.Degree(v)
				if du < dv || (du == dv && (got[u] < got[v] || (got[u] == got[v] && u >= v))) {
					t.Fatalf("hubOrder puts %d (degree %d, weight %d) before %d (degree %d, weight %d)",
						u, du, got[u], v, dv, got[v])
				}
			}
			ix := mustBuild(t, g)
			d := sp.NewDijkstra(g)
			for u := graph.NodeID(0); int(u) < n; u++ {
				for v := graph.NodeID(0); int(v) < n; v++ {
					if got, want := ix.Dist(u, v), d.Dist(u, v); got != want && math.Abs(got-want) > 1e-9*want {
						t.Fatalf("Dist(%d, %d) = %v, Dijkstra %v", u, v, got, want)
					}
				}
			}
		})
	}

	// The unsampled cycle weighs nothing, so its four degree-2 vertices
	// rank after every weighted degree-2 vertex and among themselves by
	// id, as every vertex did before the order looked at trees.
	w := treeWeights(unsampled, sampleRoots(40), pqueue.NewIndexedHeap(40))
	ix := mustBuild(t, unsampled)
	cycle := []graph.NodeID{4, 5, 9, 10}
	for i, c := range cycle {
		if w[c] != 0 {
			t.Fatalf("vertex %d of the unsampled cycle weighs %d, want 0", c, w[c])
		}
		if i > 0 && ix.rank[c] != ix.rank[cycle[i-1]]+1 {
			t.Fatalf("unsampled cycle ranks %d at %d and %d at %d, want consecutive in id order",
				cycle[i-1], ix.rank[cycle[i-1]], c, ix.rank[c])
		}
	}
	for _, v := range rest[1 : len(rest)-1] {
		if w[v] > 0 && ix.rank[v] > ix.rank[4] {
			t.Fatalf("weighted degree-2 vertex %d ranks %d, after the unsampled cycle at %d", v, ix.rank[v], ix.rank[4])
		}
	}
}
