package sp

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"fannr/internal/graph"
)

// floydWarshall computes all-pairs distances as the reference oracle.
func floydWarshall(g *graph.Graph) [][]float64 {
	n := g.NumNodes()
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
		for j := range d[i] {
			if i != j {
				d[i][j] = math.Inf(1)
			}
		}
	}
	for u := 0; u < n; u++ {
		nbrs, ws := g.Neighbors(graph.NodeID(u))
		for i, v := range nbrs {
			if ws[i] < d[u][v] {
				d[u][v] = ws[i]
				d[v][u] = ws[i]
			}
		}
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			dik := d[i][k]
			if math.IsInf(dik, 1) {
				continue
			}
			for j := 0; j < n; j++ {
				if alt := dik + d[k][j]; alt < d[i][j] {
					d[i][j] = alt
				}
			}
		}
	}
	return d
}

// randomGraph builds a connected random geometric-ish graph for property
// tests: n nodes with coordinates, a random spanning tree plus extra edges,
// weights ≥ Euclidean length so heuristics stay admissible.
func randomGraph(t testing.TB, n int, seed int64) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = rng.Float64() * 100
		y[i] = rng.Float64() * 100
	}
	if err := b.SetCoords(x, y); err != nil {
		t.Fatal(err)
	}
	euclid := func(u, v int) float64 {
		return math.Hypot(x[u]-x[v], y[u]-y[v])
	}
	add := func(u, v int) {
		if u == v {
			return
		}
		w := euclid(u, v)*(1+rng.Float64()) + 1e-9
		if err := b.AddEdge(graph.NodeID(u), graph.NodeID(v), w); err != nil {
			t.Fatal(err)
		}
	}
	for v := 1; v < n; v++ {
		add(v, rng.Intn(v)) // spanning tree: connected by construction
	}
	for i := 0; i < 2*n; i++ {
		add(rng.Intn(n), rng.Intn(n))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestDijkstraMatchesFloydWarshall(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g := randomGraph(t, 40, seed)
		want := floydWarshall(g)
		d := NewDijkstra(g)
		for src := 0; src < g.NumNodes(); src++ {
			got := d.All(graph.NodeID(src))
			for v := range got {
				if math.Abs(got[v]-want[src][v]) > 1e-9 {
					t.Fatalf("seed %d: dist(%d,%d) = %v, want %v", seed, src, v, got[v], want[src][v])
				}
			}
		}
	}
}

func TestDijkstraDistEarlyTermination(t *testing.T) {
	g := randomGraph(t, 60, 3)
	want := floydWarshall(g)
	d := NewDijkstra(g)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 200; i++ {
		u := graph.NodeID(rng.Intn(g.NumNodes()))
		v := graph.NodeID(rng.Intn(g.NumNodes()))
		if got := d.Dist(u, v); math.Abs(got-want[u][v]) > 1e-9 {
			t.Fatalf("Dist(%d,%d) = %v, want %v", u, v, got, want[u][v])
		}
	}
}

func TestDijkstraUnreachable(t *testing.T) {
	b := graph.NewBuilder(4)
	_ = b.AddEdge(0, 1, 1)
	_ = b.AddEdge(2, 3, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	d := NewDijkstra(g)
	if got := d.Dist(0, 3); !math.IsInf(got, 1) {
		t.Fatalf("Dist across components = %v, want +Inf", got)
	}
	all := d.All(0)
	if !math.IsInf(all[2], 1) || all[1] != 1 {
		t.Fatalf("All = %v", all)
	}
}

func TestDijkstraSettleOrderMonotone(t *testing.T) {
	g := randomGraph(t, 200, 4)
	d := NewDijkstra(g)
	prev := -1.0
	d.Run(0, func(_ graph.NodeID, dv float64) bool {
		if dv < prev {
			t.Fatalf("settle order not monotone: %v after %v", dv, prev)
		}
		prev = dv
		return true
	})
}

func TestAStarMatchesDijkstra(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(t, 80, seed)
		d := NewDijkstra(g)
		a := NewAStar(g)
		rng := rand.New(rand.NewSource(seed ^ 0x5ad))
		for i := 0; i < 30; i++ {
			u := graph.NodeID(rng.Intn(g.NumNodes()))
			v := graph.NodeID(rng.Intn(g.NumNodes()))
			if math.Abs(a.Dist(u, v)-d.Dist(u, v)) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestAStarScansNoMoreThanDijkstraOnAverage(t *testing.T) {
	g := randomGraph(t, 400, 6)
	d := NewDijkstra(g)
	a := NewAStar(g)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 50; i++ {
		u := graph.NodeID(rng.Intn(g.NumNodes()))
		v := graph.NodeID(rng.Intn(g.NumNodes()))
		d.Dist(u, v)
		a.Dist(u, v)
	}
	if a.NodesScanned() > d.NodesScanned() {
		t.Fatalf("A* scanned %d nodes, Dijkstra %d — heuristic not helping",
			a.NodesScanned(), d.NodesScanned())
	}
}

// nearestAmong draws the stepping search from src until k members of
// targets have settled: the stream the INE engine and APX-sum fold.
func nearestAmong(d *Dijkstra, src graph.NodeID, targets *graph.NodeSet, k int) []Neighbor {
	var dst []Neighbor
	d.Start(src)
	for len(dst) < k {
		v, dv, ok := d.Step()
		if !ok {
			break
		}
		if targets.Contains(v) {
			dst = append(dst, Neighbor{Node: v, Dist: dv})
		}
	}
	return dst
}

func TestStepMembersMatchBruteForce(t *testing.T) {
	g := randomGraph(t, 120, 8)
	d := NewDijkstra(g)
	rng := rand.New(rand.NewSource(17))
	targets := graph.NewNodeSet(g.NumNodes())
	for trial := 0; trial < 20; trial++ {
		targets.Reset()
		m := 5 + rng.Intn(20)
		members := make([]graph.NodeID, 0, m)
		for len(members) < m {
			v := graph.NodeID(rng.Intn(g.NumNodes()))
			if !targets.Contains(v) {
				targets.Add(v, int32(len(members)))
				members = append(members, v)
			}
		}
		src := graph.NodeID(rng.Intn(g.NumNodes()))
		k := 1 + rng.Intn(m)
		got := nearestAmong(d, src, targets, k)

		all := d.All(src)
		dists := make([]float64, len(members))
		for i, v := range members {
			dists[i] = all[v]
		}
		sort.Float64s(dists)
		if len(got) != k {
			t.Fatalf("stream yielded %d, want %d", len(got), k)
		}
		for i := range got {
			if math.Abs(got[i].Dist-dists[i]) > 1e-9 {
				t.Fatalf("kNN dist %d = %v, want %v", i, got[i].Dist, dists[i])
			}
			if i > 0 && got[i].Dist < got[i-1].Dist {
				t.Fatal("kNN result not sorted")
			}
		}
	}
}

func TestStepMembersEdgeCases(t *testing.T) {
	g := randomGraph(t, 30, 9)
	d := NewDijkstra(g)
	targets := graph.NewNodeSet(g.NumNodes())
	targets.Add(3, 0)
	if got := nearestAmong(d, 0, targets, 0); len(got) != 0 {
		t.Fatal("k=0 should return nothing")
	}
	// k larger than target set: return what is reachable.
	if got := nearestAmong(d, 0, targets, 5); len(got) != 1 {
		t.Fatalf("got %d results, want 1", len(got))
	}
	// Source inside the target set reports itself at distance 0.
	targets.Add(0, 1)
	got := nearestAmong(d, 0, targets, 1)
	if len(got) != 1 || got[0].Node != 0 || got[0].Dist != 0 {
		t.Fatalf("got %+v, want self at 0", got)
	}
}

func TestExpanderReportsInOrder(t *testing.T) {
	g := randomGraph(t, 150, 10)
	rng := rand.New(rand.NewSource(20))
	report := graph.NewNodeSet(g.NumNodes())
	var members []graph.NodeID
	for len(members) < 25 {
		v := graph.NodeID(rng.Intn(g.NumNodes()))
		if !report.Contains(v) {
			report.Add(v, 0)
			members = append(members, v)
		}
	}
	src := graph.NodeID(3)
	e := NewExpander(g, src, report)

	d := NewDijkstra(g)
	all := d.All(src)
	want := make([]float64, len(members))
	for i, v := range members {
		want[i] = all[v]
	}
	sort.Float64s(want)

	seen := map[graph.NodeID]bool{}
	prev := -1.0
	for i := 0; ; i++ {
		nb, ok := e.Next()
		if !ok {
			if i != len(members) {
				t.Fatalf("expander exhausted after %d, want %d", i, len(members))
			}
			break
		}
		if seen[nb.Node] {
			t.Fatalf("node %d reported twice", nb.Node)
		}
		seen[nb.Node] = true
		if nb.Dist < prev {
			t.Fatalf("report order not monotone: %v after %v", nb.Dist, prev)
		}
		if math.Abs(nb.Dist-want[i]) > 1e-9 {
			t.Fatalf("report %d dist = %v, want %v", i, nb.Dist, want[i])
		}
		if math.Abs(nb.Dist-all[nb.Node]) > 1e-9 {
			t.Fatalf("reported dist %v != true dist %v", nb.Dist, all[nb.Node])
		}
		prev = nb.Dist
	}
}

func TestExpanderPeekIdempotent(t *testing.T) {
	g := randomGraph(t, 50, 11)
	report := graph.NewNodeSet(g.NumNodes())
	report.Add(40, 0)
	report.Add(20, 0)
	e := NewExpander(g, 0, report)
	p1, ok1 := e.Peek()
	p2, ok2 := e.Peek()
	if !ok1 || !ok2 || p1 != p2 {
		t.Fatalf("Peek not idempotent: %+v/%v vs %+v/%v", p1, ok1, p2, ok2)
	}
	n, _ := e.Next()
	if n != p1 {
		t.Fatalf("Next %+v != peeked %+v", n, p1)
	}
	if d, ok := e.SettledDist(n.Node); !ok || d != n.Dist {
		t.Fatalf("SettledDist = (%v,%v), want (%v,true)", d, ok, n.Dist)
	}
}

func TestExpanderSelfReport(t *testing.T) {
	g := randomGraph(t, 30, 12)
	report := graph.NewNodeSet(g.NumNodes())
	report.Add(5, 0)
	e := NewExpander(g, 5, report)
	nb, ok := e.Next()
	if !ok || nb.Node != 5 || nb.Dist != 0 {
		t.Fatalf("source in report set: got %+v,%v", nb, ok)
	}
	if _, ok := e.Next(); ok {
		t.Fatal("expander should be exhausted")
	}
}
