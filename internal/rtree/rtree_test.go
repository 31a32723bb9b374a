package rtree

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func randomPoints(n int, seed int64) []Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000, ID: int32(i)}
	}
	return pts
}

func TestRectMinDist(t *testing.T) {
	r := Rect{0, 0, 10, 10}
	cases := []struct {
		x, y, want float64
	}{
		{5, 5, 0},   // inside
		{0, 0, 0},   // corner
		{15, 5, 5},  // right
		{5, -3, 3},  // below
		{13, 14, 5}, // diagonal 3-4-5
	}
	for _, c := range cases {
		if got := r.MinDist(c.x, c.y); math.Abs(got-c.want) > 1e-12 {
			t.Fatalf("MinDist(%v,%v) = %v, want %v", c.x, c.y, got, c.want)
		}
	}
}

func TestRectUnionArea(t *testing.T) {
	u := Rect{0, 0, 1, 1}.Union(Rect{2, 3, 4, 5})
	if u != (Rect{0, 0, 4, 5}) {
		t.Fatalf("Union = %+v", u)
	}
	if e := EmptyRect().Union(Rect{1, 1, 2, 2}); e != (Rect{1, 1, 2, 2}) {
		t.Fatalf("EmptyRect union = %+v", e)
	}
}

// MinDist property: it never exceeds the true distance to any contained point.
func TestMinDistLowerBoundProperty(t *testing.T) {
	f := func(px, py, qx, qy, x, y float64) bool {
		r := PointRect(px, py).Union(PointRect(qx, qy))
		for _, p := range [][2]float64{{px, py}, {qx, qy}} {
			true1 := math.Hypot(p[0]-x, p[1]-y)
			if r.MinDist(x, y) > true1+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func checkTreeInvariants(t *testing.T, tr *Tree) {
	t.Helper()
	var rec func(n *Node) int
	rec = func(n *Node) int {
		if n.IsLeaf() {
			for _, p := range n.Points() {
				if n.Rect().Union(PointRect(p.X, p.Y)) != n.Rect() {
					t.Fatalf("leaf MBR %+v misses point %+v", n.Rect(), p)
				}
			}
			return len(n.Points())
		}
		total := 0
		for _, c := range n.Children() {
			u := n.Rect().Union(c.Rect())
			if u != n.Rect() {
				t.Fatalf("child MBR %+v escapes parent %+v", c.Rect(), n.Rect())
			}
			total += rec(c)
		}
		return total
	}
	if got := rec(tr.Root()); got != tr.Len() {
		t.Fatalf("tree holds %d points, Len() = %d", got, tr.Len())
	}
}

func TestBulkLoadInvariants(t *testing.T) {
	for _, n := range []int{0, 1, 3, 4, 5, 17, 100, 1000} {
		tr := BulkLoad(randomPoints(n, int64(n)), 4)
		if tr.Len() != n {
			t.Fatalf("Len = %d, want %d", tr.Len(), n)
		}
		checkTreeInvariants(t, tr)
	}
}

// TestBulkLoadIgnoresInputOrder pins the packing's total order: on a
// lattice, where every coordinate is shared by a whole row or column,
// the packed tree is the same whatever order the points arrive in.
func TestBulkLoadIgnoresInputOrder(t *testing.T) {
	const side = 13
	pts := make([]Point, 0, side*side)
	for i := 0; i < side*side; i++ {
		pts = append(pts, Point{X: float64(i % side), Y: float64(i / side), ID: int32(i)})
	}
	var leaves func(n *Node, out [][]Point) [][]Point
	leaves = func(n *Node, out [][]Point) [][]Point {
		if n.IsLeaf() {
			return append(out, n.Points())
		}
		for _, c := range n.Children() {
			out = leaves(c, out)
		}
		return out
	}
	want := leaves(BulkLoad(append([]Point(nil), pts...), 4).Root(), nil)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 5; trial++ {
		rng.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
		tr := BulkLoad(append([]Point(nil), pts...), 4)
		checkTreeInvariants(t, tr)
		got := leaves(tr.Root(), nil)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d leaves, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if !slices.Equal(got[i], want[i]) {
				t.Fatalf("trial %d: leaf %d holds %v, the unshuffled load packed %v", trial, i, got[i], want[i])
			}
		}
	}
}

func TestNNMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		pts := randomPoints(200, seed)
		tr := BulkLoad(append([]Point(nil), pts...), 4)
		rng := rand.New(rand.NewSource(seed ^ 0xff))
		for i := 0; i < 20; i++ {
			x, y := rng.Float64()*1000, rng.Float64()*1000
			best := math.Inf(1)
			for _, p := range pts {
				if d := math.Hypot(p.X-x, p.Y-y); d < best {
					best = d
				}
			}
			_, got, ok := incNN(tr, x, y).Next()
			if !ok || math.Abs(got-best) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// incNN starts a scan from (x, y) on a fresh iterator.
func incNN(t *Tree, x, y float64) *IncNN {
	it := new(IncNN)
	it.Reset(t, x, y)
	return it
}

func TestNNEmptyTree(t *testing.T) {
	tr := BulkLoad(nil, 4)
	it := incNN(tr, 0, 0)
	if _, _, ok := it.Next(); ok {
		t.Fatal("IncNN on empty tree should report !ok")
	}
	if !math.IsInf(it.Peek(), 1) {
		t.Fatal("Peek on empty iterator should be +Inf")
	}
}

func TestIncNNFullOrder(t *testing.T) {
	pts := randomPoints(300, 7)
	tr := BulkLoad(append([]Point(nil), pts...), 4)
	x, y := 500.0, 500.0
	want := make([]float64, len(pts))
	for i, p := range pts {
		want[i] = math.Hypot(p.X-x, p.Y-y)
	}
	sort.Float64s(want)
	it := incNN(tr, x, y)
	for i := 0; ; i++ {
		if peek := it.Peek(); !math.IsInf(peek, 1) && math.Abs(peek-want[i]) > 1e-9 {
			t.Fatalf("Peek %d = %v, want %v", i, peek, want[i])
		}
		_, d, ok := it.Next()
		if !ok {
			if i != len(pts) {
				t.Fatalf("iterator exhausted after %d, want %d", i, len(pts))
			}
			break
		}
		if math.Abs(d-want[i]) > 1e-9 {
			t.Fatalf("IncNN order %d = %v, want %v", i, d, want[i])
		}
	}
}

func TestStats(t *testing.T) {
	tr := BulkLoad(randomPoints(256, 6), 4)
	s := tr.Stats()
	if s.Leaves == 0 || s.Nodes < s.Leaves || s.Height < 2 || s.MemoryBytes <= 0 {
		t.Fatalf("implausible stats: %+v", s)
	}
}

// BenchmarkBulkLoad packs a P the size IER-kNN builds per request (the
// benchmark's |P| = 169).
func BenchmarkBulkLoad(b *testing.B) {
	src := randomPoints(169, 1)
	pts := make([]Point, len(src))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(pts, src)
		BulkLoad(pts, DefaultFanout)
	}
}

func BenchmarkIncNN(b *testing.B) {
	tr := BulkLoad(randomPoints(10000, 1), 8)
	b.ReportAllocs()
	b.ResetTimer()
	var it IncNN
	for i := 0; i < b.N; i++ {
		it.Reset(tr, 500, 500)
		for j := 0; j < 10; j++ {
			it.Next()
		}
	}
}
