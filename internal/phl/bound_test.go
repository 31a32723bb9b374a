package phl

import (
	"math"
	"math/rand"
	"testing"

	"fannr/internal/graph"
	"fannr/internal/workload"
)

// islandGraph is randomGraph with no edge across node n·2/3: two
// components, so bound distances include +Inf.
func islandGraph(t testing.TB, n int, seed int64) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	cut := n * 2 / 3
	side := func(v int) (lo, size int) {
		if v < cut {
			return 0, cut
		}
		return cut, n - cut
	}
	for v := 1; v < n; v++ {
		if lo, _ := side(v); v > lo {
			_ = b.AddEdge(graph.NodeID(v), graph.NodeID(lo+rng.Intn(v-lo)), 1+rng.Float64()*9)
		}
	}
	for i := 0; i < 2*n; i++ {
		u := rng.Intn(n)
		lo, size := side(u)
		if v := lo + rng.Intn(size); u != v {
			_ = b.AddEdge(graph.NodeID(u), graph.NodeID(v), 1+rng.Float64()*9)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// checkBound binds Q on b and compares DistBound from every source in
// srcs, bit for bit, with DistBatch on a second Batcher (so the two
// paths never share scatter state) and with the label merge. It then
// takes the same walk in two steps (checkPrefix).
func checkBound(t testing.TB, ix *Index, b *Batcher, Q, srcs []graph.NodeID) {
	t.Helper()
	ref := ix.NewBatcher()
	got := make([]float64, len(Q)+1)
	want := make([]float64, len(Q))
	b.BindTargets(Q)
	for _, p := range srcs {
		const untouched = -1
		got[len(Q)] = untouched
		b.DistBound(p, got)
		if got[len(Q)] != untouched {
			t.Fatalf("DistBound(%d) wrote past the %d bound targets", p, len(Q))
		}
		checkPrefix(t, ix, b, p, got[:len(Q)])
		ref.DistBatch(p, Q, want)
		for i, q := range Q {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("DistBound(%d)[%d→%d] = %v, DistBatch = %v", p, i, q, got[i], want[i])
			}
			if d := ix.Dist(p, q); math.Float64bits(got[i]) != math.Float64bits(d) {
				t.Fatalf("DistBound(%d)[%d→%d] = %v, Dist = %v", p, i, q, got[i], d)
			}
		}
	}
}

// checkPrefix holds the two-step walk from p against want, DistBound's
// result over the list b has bound: stopping after 1, 2, 4, 8 and all of
// L(p)'s hubs, the prefix leaves upper bounds in out and admissible lower
// bounds in lb (lb[i] ≤ want[i], the inequality DistBelow's exactness
// rests on) without writing past the bound targets, and resuming from
// the returned position reaches want bit for bit.
func checkPrefix(t testing.TB, ix *Index, b *Batcher, p graph.NodeID, want []float64) {
	t.Helper()
	const untouched = -1
	n := len(want)
	out, lb := make([]float64, n+1), make([]float64, n+1)
	label, _ := ix.label(p)
	for _, hubs := range []int{1, 2, 4, 8, len(label)} {
		out[n], lb[n] = untouched, untouched
		pos := b.DistBoundPrefix(p, hubs, out, lb)
		if out[n] != untouched || lb[n] != untouched {
			t.Fatalf("DistBoundPrefix(%d, %d hubs) wrote past the %d bound targets", p, hubs, n)
		}
		if pos < 0 || pos > len(label) || (hubs >= len(label) && n > 0 && pos != len(label)) {
			t.Fatalf("DistBoundPrefix(%d, %d hubs) stopped at %d of a %d-entry label", p, hubs, pos, len(label))
		}
		for i := range want {
			if !(0 <= lb[i] && lb[i] <= want[i]) {
				t.Fatalf("DistBoundPrefix(%d, %d hubs): lb[%d] = %v is not in [0, d = %v]", p, hubs, i, lb[i], want[i])
			}
			if out[i] < want[i] {
				t.Fatalf("DistBoundPrefix(%d, %d hubs): out[%d] = %v under the distance %v", p, hubs, i, out[i], want[i])
			}
		}
		b.DistBoundResume(p, pos, out)
		if out[n] != untouched {
			t.Fatalf("DistBoundResume(%d, from %d) wrote past the %d bound targets", p, pos, n)
		}
		for i := range want {
			if math.Float64bits(out[i]) != math.Float64bits(want[i]) {
				t.Fatalf("prefix(%d hubs) + resume from %d: [%d→target %d] = %v, DistBound = %v", hubs, pos, p, i, out[i], want[i])
			}
		}
	}
}

func allNodes(g *graph.Graph) []graph.NodeID {
	out := make([]graph.NodeID, g.NumNodes())
	for i := range out {
		out[i] = graph.NodeID(i)
	}
	return out
}

func drawNodes(rng *rand.Rand, n, count int) []graph.NodeID {
	out := make([]graph.NodeID, count)
	for i := range out {
		out[i] = graph.NodeID(rng.Intn(n))
	}
	return out
}

// TestDistBoundMatchesDistBatch is the bit-identity property of the
// target-bound path over road-like, random and two-component graphs.
// Every node is a source, so p ∈ Q (distance 0) is always among them,
// and drawNodes samples with replacement, so Q carries duplicate ids.
// One Batcher serves all bindings of a graph: |Q| = 1, a larger Q, a
// smaller one, the empty one and a larger one again, which is the
// grow-only slab and the stale-bucket case.
func TestDistBoundMatchesDistBatch(t *testing.T) {
	road, err := graph.Generate(graph.GenConfig{Nodes: 500, Seed: 31, Name: "bound"})
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range map[string]*graph.Graph{
		"road":    road,
		"random":  randomGraph(t, 200, 32),
		"islands": islandGraph(t, 150, 33),
	} {
		t.Run(name, func(t *testing.T) {
			ix, err := Build(g, Options{})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(34))
			b := ix.NewBatcher()
			srcs := allNodes(g)
			for _, m := range []int{1, 40, 7, 0, 64, 64} {
				checkBound(t, ix, b, drawNodes(rng, g.NumNodes(), m), srcs)
			}
			Q := drawNodes(rng, g.NumNodes(), 16)
			Q[5], Q[11] = Q[2], Q[2]
			checkBound(t, ix, b, Q, srcs)
		})
	}
}

// unitGrid is core's tie-heavy fixture (core/engines_test.go): a
// side×side grid of unit-weight edges plus a 5-node chain nothing
// connects to it. Every label entry is a small integer, so differences
// and sums are exact and a bound that is off by one ulp shows.
func unitGrid(t testing.TB, side int) *graph.Graph {
	t.Helper()
	n := side * side
	b := graph.NewBuilder(n + 5)
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			v := graph.NodeID(r*side + c)
			if c+1 < side {
				_ = b.AddEdge(v, v+1, 1)
			}
			if r+1 < side {
				_ = b.AddEdge(v, v+graph.NodeID(side), 1)
			}
		}
	}
	for i := 1; i < 5; i++ {
		_ = b.AddEdge(graph.NodeID(n+i-1), graph.NodeID(n+i), 1)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestDistBoundPrefixOnUnitGrid runs the two-step walk where distances
// tie everywhere and part of Q is out of reach: target lists that
// straddle the grid and the chain, a repeated target, all nodes, none.
// It also requires the bounds to be worth having: over the grid, four
// hubs must put most lower bounds above half the distance they bound.
func TestDistBoundPrefixOnUnitGrid(t *testing.T) {
	g := unitGrid(t, 12)
	ix, err := Build(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumNodes()
	rng := rand.New(rand.NewSource(42))
	b := ix.NewBatcher()
	srcs := allNodes(g)
	for _, m := range []int{1, 24, 0, 9} {
		Q := drawNodes(rng, n, m)
		if m > 2 {
			Q[0], Q[1], Q[2] = graph.NodeID(n-1), graph.NodeID(n-3), Q[m-1] // two on the chain, one repeat
		}
		checkBound(t, ix, b, Q, srcs)
	}
	checkBound(t, ix, b, srcs, srcs)

	out, lb := make([]float64, n), make([]float64, n)
	tight, reachable := 0, 0
	for _, p := range srcs[:n-5] {
		b.DistBoundPrefix(p, 4, out, lb)
		b.DistBound(p, out)
		for i := range srcs[:n-5] {
			reachable++
			if 2*lb[i] >= out[i] {
				tight++
			}
		}
	}
	if 2*tight < reachable {
		t.Fatalf("four hubs bound only %d of %d grid pairs to within a factor 2", tight, reachable)
	}
}

func TestDistBoundUnreachable(t *testing.T) {
	g := islandGraph(t, 30, 35)
	ix, err := Build(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b := ix.NewBatcher()
	b.BindTargets([]graph.NodeID{0, 29, 1})
	out := make([]float64, 3)
	b.DistBound(2, out)
	if math.IsInf(out[0], 1) || !math.IsInf(out[1], 1) || math.IsInf(out[2], 1) {
		t.Fatalf("DistBound(2 → 0, 29, 1) = %v, want +Inf exactly across the cut", out)
	}
}

// TestDistBoundUnbound: before any BindTargets there are no targets, so
// DistBound touches nothing — not even its tables, which do not exist.
func TestDistBoundUnbound(t *testing.T) {
	ix, err := Build(randomGraph(t, 20, 36), Options{})
	if err != nil {
		t.Fatal(err)
	}
	out, lb := []float64{-1}, []float64{-1}
	b := ix.NewBatcher()
	b.DistBound(3, out)
	b.DistBoundResume(3, b.DistBoundPrefix(3, 4, out, lb), out)
	if out[0] != -1 || lb[0] != -1 {
		t.Fatalf("unbound DistBound / prefix / resume wrote %v, %v", out[0], lb[0])
	}
}

// TestEpochWrap drives both stamp tables across the uint32 wrap. Epochs
// restart at 1 after it, so a stamp left by the very first binding (or
// scatter) reads as live again unless the wrap cleared the table; and a
// table full of the last pre-wrap epoch must not survive it either.
func TestEpochWrap(t *testing.T) {
	g := randomGraph(t, 120, 37)
	ix, err := Build(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(38))
	srcs := allNodes(g)
	for _, start := range []uint32{math.MaxUint32 - 3, math.MaxUint32 - 2, math.MaxUint32 - 1, math.MaxUint32} {
		for _, fill := range []bool{false, true} {
			b := ix.NewBatcher()
			b.BindTargets(drawNodes(rng, g.NumNodes(), 30)) // allocates the tables, stamps 1 and 2
			b.bepoch = start
			if fill {
				for i := range b.bstamp {
					b.bstamp[i] = start
				}
			}
			for round := 0; round < 4; round++ {
				checkBound(t, ix, b, drawNodes(rng, g.NumNodes(), 12), srcs)
			}
			if b.bepoch > 16 {
				t.Fatalf("bind epoch %d did not wrap from %d", b.bepoch, start)
			}
		}
	}

	// Every round scatters under epoch 1 and is then put on the brink
	// again, so the next one meets the previous source's stamps at the
	// very epoch it restarts under.
	b, ref := ix.NewBatcher(), ix.NewBatcher()
	want := make([]float64, len(srcs))
	got := make([]float64, len(srcs))
	for round := 0; round < 6; round++ {
		u := graph.NodeID(rng.Intn(g.NumNodes()))
		b.DistBatch(u, srcs, got)
		ref.DistBatch(u, srcs, want)
		for i, v := range srcs {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("round %d: DistBatch(%d→%d) = %v across the epoch wrap, want %v", round, u, v, got[i], want[i])
			}
		}
		if b.epoch != 1 {
			t.Fatalf("round %d: scatter epoch %d, want 1 (fresh, or wrapped)", round, b.epoch)
		}
		b.epoch = math.MaxUint32
	}
}

// TestBatcherMemoryCountsBuckets: the bind tables and slabs appear in
// MemoryBytes once they exist, and not before.
func TestBatcherMemoryCountsBuckets(t *testing.T) {
	g := randomGraph(t, 100, 39)
	ix, err := Build(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b := ix.NewBatcher()
	before := b.MemoryBytes()
	Q := allNodes(g)[:10]
	b.BindTargets(Q)
	entries := int64(0)
	for _, q := range Q {
		h, _ := ix.label(q)
		entries += int64(len(h))
	}
	if got, want := b.MemoryBytes()-before, 3*4*int64(g.NumNodes())+12*entries; got != want {
		t.Fatalf("bind added %d bytes to MemoryBytes, want 3·4n + 12 per entry = %d", got, want)
	}
}

func TestDistBoundWarmAllocs(t *testing.T) {
	g := randomGraph(t, 200, 40)
	ix, err := Build(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(41))
	b := ix.NewBatcher()
	Q, small := drawNodes(rng, g.NumNodes(), 32), drawNodes(rng, g.NumNodes(), 8)
	out, lb := make([]float64, len(Q)), make([]float64, len(Q))
	b.BindTargets(Q)
	if allocs := testing.AllocsPerRun(20, func() {
		b.BindTargets(small)
		b.BindTargets(Q)
		for p := 0; p < 50; p++ {
			b.DistBound(graph.NodeID(p), out)
			b.DistBoundResume(graph.NodeID(p), b.DistBoundPrefix(graph.NodeID(p), 4, out, lb), out)
		}
	}); allocs != 0 {
		t.Fatalf("warm BindTargets + DistBound, prefix and resume allocate %v objects, want 0", allocs)
	}
}

// FuzzDistBoundMatchesDistBatch: any graph shape, any target list (with
// repeats, possibly empty), rebound on one Batcher from a prefix to the
// whole list, answers every source exactly as DistBatch does.
func FuzzDistBoundMatchesDistBatch(f *testing.F) {
	f.Add(int64(1), uint8(40), false, []byte{0, 1, 2, 3})
	f.Add(int64(2), uint8(0), false, []byte{})
	f.Add(int64(3), uint8(61), true, []byte{7, 7, 7, 250, 60, 0})
	f.Add(int64(4), uint8(9), true, []byte{8})
	f.Fuzz(func(t *testing.T, seed int64, size uint8, islands bool, raw []byte) {
		n := 2 + int(size)%62
		g := randomGraph(t, n, seed)
		if islands {
			g = islandGraph(t, n, seed)
		}
		ix, err := Build(g, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(raw) > 64 {
			raw = raw[:64]
		}
		Q := make([]graph.NodeID, len(raw))
		for i, c := range raw {
			Q[i] = graph.NodeID(int(c) % n)
		}
		b := ix.NewBatcher()
		srcs := allNodes(g)
		checkBound(t, ix, b, Q[:len(Q)/2], srcs)
		checkBound(t, ix, b, Q, srcs)
	})
}

// BenchmarkDistBoundPrefix prices a candidate on the bound path at
// gd-phl-max-dense's shape (NW 1/64, Q of 128 at A = 10 %, sources drawn
// uniformly): "full" is DistBound, what every candidate cost before the
// walk could stop; "rejected" is the four-hub prefix alone, what a
// candidate the bounds rule out costs now; "completed" is prefix plus
// resume, what the few that go on to a value cost.
func BenchmarkDistBoundPrefix(b *testing.B) {
	g, err := workload.LoadDataset("NW", 1.0/64)
	if err != nil {
		b.Fatal(err)
	}
	ix, err := Build(g, Options{})
	if err != nil {
		b.Fatal(err)
	}
	gen := workload.NewGenerator(g, 26)
	Q, srcs := gen.UniformQ(0.10, 128), gen.UniformP(0.01)
	bt := ix.NewBatcher()
	bt.BindTargets(Q)
	out, lb := make([]float64, len(Q)), make([]float64, len(Q))
	for _, arm := range []struct {
		name string
		walk func(graph.NodeID)
	}{
		{"full", func(u graph.NodeID) { bt.DistBound(u, out) }},
		{"rejected", func(u graph.NodeID) { bt.DistBoundPrefix(u, 4, out, lb) }},
		{"completed", func(u graph.NodeID) { bt.DistBoundResume(u, bt.DistBoundPrefix(u, 4, out, lb), out) }},
	} {
		b.Run(arm.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				arm.walk(srcs[i%len(srcs)])
			}
		})
	}
}

// BenchmarkBindTargets prices the bind a PHL request pays before its
// first evaluation, at hot_ier's shape — NW 1/64, Q of 128 at A = 10 %,
// a different Q on every request (64 in rotation, so no bucket layout is
// ever warm). entries/bind is Σ_q |L(q)|, the count the bind's cost
// follows and the hub order sets.
func BenchmarkBindTargets(b *testing.B) {
	g := loadNW(b, 1.0/64)
	ix := mustBuild(b, g)
	gen := workload.NewGenerator(g, 27)
	qs := make([][]graph.NodeID, 64)
	entries := 0
	for i := range qs {
		qs[i] = gen.UniformQ(0.10, 128)
		for _, q := range qs[i] {
			h, _ := ix.label(q)
			entries += len(h)
		}
	}
	bt := ix.NewBatcher()
	bt.BindTargets(qs[0])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bt.BindTargets(qs[i%len(qs)])
	}
	b.ReportMetric(float64(entries)/float64(len(qs)), "entries/bind")
}
