package phl

import (
	"math"
	"math/rand"
	"testing"

	"fannr/internal/graph"
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
// paths never share scatter state) and with the label merge.
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
	out := []float64{-1}
	ix.NewBatcher().DistBound(3, out)
	if out[0] != -1 {
		t.Fatalf("unbound DistBound wrote %v", out[0])
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
	out := make([]float64, len(Q))
	b.BindTargets(Q)
	if allocs := testing.AllocsPerRun(20, func() {
		b.BindTargets(small)
		b.BindTargets(Q)
		for p := 0; p < 50; p++ {
			b.DistBound(graph.NodeID(p), out)
		}
	}); allocs != 0 {
		t.Fatalf("warm BindTargets + DistBound allocate %v objects, want 0", allocs)
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
