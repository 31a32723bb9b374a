package core

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"fannr/internal/graph"
	"fannr/internal/gtree"
	"fannr/internal/phl"
	"fannr/internal/sp"
)

// distBatchSubstrate is one (name, oracle, batch) triple under
// differential test: DistBatch must agree with a loop of Dist calls.
type distBatchSubstrate struct {
	name  string
	o     Oracle
	b     BatchOracle
	exact bool // bit-identical (PHL, Dijkstra) vs tolerance (G-tree ulps)
}

func batchSubstrates(t *testing.T, g *graph.Graph) []distBatchSubstrate {
	t.Helper()
	ix, err := phl.Build(g, phl.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := gtree.Build(g, gtree.Options{MaxLeafSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	phlOracle, phlBatch := batchOf(ix)
	if phlBatch == nil {
		t.Fatal("phl.Index did not provide a batch oracle")
	}
	qr := tr.NewQuerier()
	dj := sp.NewDijkstra(g)
	return []distBatchSubstrate{
		{"PHL", phlOracle, phlBatch, true},
		{"GTree", qr, BatchOracle(qr), false},
		{"Dijkstra", dj, BatchOracle(dj), true},
	}
}

// TestDistBatchMatchesDist runs the one-to-many lookups of every batching
// substrate against looped point-to-point Dist over 500 seeded
// (source, target-set) pairs.
func TestDistBatchMatchesDist(t *testing.T) {
	g, err := graph.Generate(graph.GenConfig{Nodes: 400, Seed: 7, Name: "batch"})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	n := g.NumNodes()
	for _, sub := range batchSubstrates(t, g) {
		t.Run(sub.name, func(t *testing.T) {
			out := make([]float64, 0)
			for pair := 0; pair < 500; pair++ {
				u := graph.NodeID(rng.Intn(n))
				targets := make([]graph.NodeID, 1+rng.Intn(16))
				for i := range targets {
					targets[i] = graph.NodeID(rng.Intn(n))
				}
				if cap(out) < len(targets) {
					out = make([]float64, len(targets))
				}
				out = out[:len(targets)]
				sub.b.DistBatch(u, targets, out)
				for i, v := range targets {
					want := sub.o.Dist(u, v)
					if sub.exact {
						if out[i] != want {
							t.Fatalf("pair %d: DistBatch(%d→%d) = %v, Dist = %v", pair, u, v, out[i], want)
						}
						continue
					}
					if math.Abs(out[i]-want) > 1e-6*math.Max(1, want) {
						t.Fatalf("pair %d: DistBatch(%d→%d) = %v, Dist = %v", pair, u, v, out[i], want)
					}
				}
			}
		})
	}
}

// TestDistBatchSameSourceResume pins the per-source memoization: a run of
// consecutive DistBatch calls from one source — the shape IER's chunked
// candidate scan produces — must return the same distances as a cold
// batch, whether the memo is warm (consecutive calls), invalidated by an
// interleaved point-to-point Dist, or redirected to another source and
// back. Expected values come from independent substrate instances so the
// memo under test is never perturbed by the check itself.
func TestDistBatchSameSourceResume(t *testing.T) {
	g, err := graph.Generate(graph.GenConfig{Nodes: 400, Seed: 11, Name: "resume"})
	if err != nil {
		t.Fatal(err)
	}
	refs := batchSubstrates(t, g)
	rng := rand.New(rand.NewSource(11))
	n := g.NumNodes()
	for si, sub := range batchSubstrates(t, g) {
		ref := refs[si]
		t.Run(sub.name, func(t *testing.T) {
			check := func(round int, u graph.NodeID, targets []graph.NodeID, out []float64) {
				t.Helper()
				for i, v := range targets {
					want := ref.o.Dist(u, v)
					if sub.exact {
						if out[i] != want {
							t.Fatalf("round %d: DistBatch(%d→%d) = %v, Dist = %v", round, u, v, out[i], want)
						}
						continue
					}
					if math.Abs(out[i]-want) > 1e-6*math.Max(1, want) {
						t.Fatalf("round %d: DistBatch(%d→%d) = %v, Dist = %v", round, u, v, out[i], want)
					}
				}
			}
			u := graph.NodeID(rng.Intn(n))
			other := graph.NodeID(rng.Intn(n))
			out := make([]float64, 16)
			var targets []graph.NodeID
			draw := func() []graph.NodeID {
				targets = targets[:0]
				for i := 0; i < 1+rng.Intn(16); i++ {
					targets = append(targets, graph.NodeID(rng.Intn(n)))
				}
				return targets
			}
			// Rounds 0-5: warm same-source resume with overlapping targets.
			for round := 0; round < 6; round++ {
				ts := draw()
				sub.b.DistBatch(u, ts, out)
				check(round, u, ts, out[:len(ts)])
			}
			// Round 6: interleaved point-to-point Dist (invalidates the
			// Dijkstra frontier), then a same-source batch again.
			_ = sub.o.Dist(u, other)
			ts := draw()
			sub.b.DistBatch(u, ts, out)
			check(6, u, ts, out[:len(ts)])
			// Rounds 7-8: switch source and come back.
			ts = draw()
			sub.b.DistBatch(other, ts, out)
			check(7, other, ts, out[:len(ts)])
			ts = draw()
			sub.b.DistBatch(u, ts, out)
			check(8, u, ts, out[:len(ts)])
		})
	}
}

// TestDistBatchDisconnected pins the +Inf contract: targets in another
// component come back +Inf from every substrate, exactly like Dist.
func TestDistBatchDisconnected(t *testing.T) {
	// Two chain components: 0..9 and 10..19.
	b := graph.NewBuilder(20)
	x := make([]float64, 20)
	y := make([]float64, 20)
	for i := range x {
		x[i] = float64(i)
		if i >= 10 {
			x[i] += 100
		}
	}
	if err := b.SetCoords(x, y); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 9; i++ {
		_ = b.AddEdge(graph.NodeID(i), graph.NodeID(i+1), 1)
		_ = b.AddEdge(graph.NodeID(10+i), graph.NodeID(11+i), 1)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	targets := []graph.NodeID{2, 15, 9, 10, 0}
	out := make([]float64, len(targets))
	for _, sub := range batchSubstrates(t, g) {
		t.Run(sub.name, func(t *testing.T) {
			sub.b.DistBatch(3, targets, out)
			for i, v := range targets {
				want := sub.o.Dist(3, v)
				if out[i] != want && !(math.IsInf(out[i], 1) && math.IsInf(want, 1)) {
					t.Fatalf("DistBatch(3→%d) = %v, Dist = %v", v, out[i], want)
				}
				if v >= 10 && !math.IsInf(out[i], 1) {
					t.Fatalf("DistBatch(3→%d) = %v, want +Inf across components", v, out[i])
				}
			}
		})
	}
}

// hotpathEnv builds the allocation-gate fixture: a coordinate graph, a
// PHL index, and a clustered query with a warm Scratch.
func hotpathEnv(t testing.TB) (*graph.Graph, *phl.Index, Query) {
	t.Helper()
	g, err := graph.Generate(graph.GenConfig{Nodes: 600, Seed: 11, Name: "hot"})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := phl.Build(g, phl.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	pick := func(count int) []graph.NodeID {
		seen := map[int32]bool{}
		out := make([]graph.NodeID, 0, count)
		for len(out) < count {
			v := int32(rng.Intn(g.NumNodes()))
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
		return out
	}
	q := Query{P: pick(48), Q: pick(24), Phi: 0.5, Agg: Max, Scratch: NewScratch()}
	return g, ix, q
}

// hotpathQueries returns q and a twin over a different, smaller Q drawn
// from q.P: alternating them makes every request rebind the engine, as
// traffic does.
func hotpathQueries(q Query) []Query {
	q2 := q
	q2.Q = append([]graph.NodeID(nil), q.P[:10]...)
	return []Query{q, q2}
}

// requireBound fails unless gp resolves through the target-bound path and
// has bound a Q.
func requireBound(t *testing.T, gp GPhi) {
	t.Helper()
	if e := gp.(*oracleEngine); e.tb == nil || !e.bound {
		t.Fatalf("%s engine is not on the target-bound path (tb=%v bound=%v)", gp.Name(), e.tb, e.bound)
	}
}

// TestGDZeroAllocSteadyState is the PR's headline gate: GD over the PHL
// engine with a warm Scratch performs zero heap allocations per query —
// the bind of Q on the first evaluation included, with Q changing from
// one query to the next.
func TestGDZeroAllocSteadyState(t *testing.T) {
	g, ix, q := hotpathEnv(t)
	gp := NewOracleGPhi("PHL", ix)
	qs := hotpathQueries(q)
	run := func() {
		for _, query := range qs {
			if _, err := GD(g, gp, query, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	run() // warm every buffer
	requireBound(t, gp)
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Fatalf("GD steady state allocates %v objects per two queries, want 0", allocs)
	}
}

// laneQueries alternates two (P, Q) of different |P| and |Q| over one
// warm Scratch, so every request re-arms pooled lanes from other
// sources, and the smaller one leaves lanes idle.
func laneQueries(q Query) []Query {
	q2 := q
	q2.P = append([]graph.NodeID(nil), q.Q...)
	q2.Q = append([]graph.NodeID(nil), q.P[:10]...)
	return []Query{q, q2}
}

// warmAllocs runs each query once through run to warm the Scratch, then
// reports the allocations of one more pass.
func warmAllocs(t *testing.T, qs []Query, run func(Query) error) float64 {
	t.Helper()
	pass := func() {
		for _, q := range qs {
			if err := run(q); err != nil {
				t.Fatal(err)
			}
		}
	}
	pass()
	return testing.AllocsPerRun(20, pass)
}

// TestRListWarmAlloc: R-List over INE with a warm Scratch allocates
// nothing — the |Q| lanes, their label tables and frontiers, the
// meta-heap and P's membership set are the Scratch's and are re-armed,
// where each request used to mint 2·|Q| maps, |Q| heaps and a
// graph-sized NodeSet.
func TestRListWarmAlloc(t *testing.T) {
	g, _, q := hotpathEnv(t)
	gp := NewINE(g)
	for _, agg := range []Aggregate{Sum, Max} {
		q.Agg = agg
		allocs := warmAllocs(t, laneQueries(q), func(q Query) error { _, err := RList(g, gp, q, 1); return err })
		if allocs != 0 {
			t.Fatalf("R-List (%v) steady state allocates %v objects per two queries, want 0", agg, allocs)
		}
	}
}

// TestExactMaxWarmAlloc is the same gate for Exact-max, which shares the
// lanes.
func TestExactMaxWarmAlloc(t *testing.T) {
	g, _, q := hotpathEnv(t)
	gp := NewINE(g)
	allocs := warmAllocs(t, laneQueries(q), func(q Query) error { _, err := ExactMax(g, gp, q, 1); return err })
	if allocs != 0 {
		t.Fatalf("Exact-max steady state allocates %v objects per two queries, want 0", allocs)
	}
}

// TestBoundPathWarmAlloc is the same gate one layer down: Reset, then one
// Dist per data point, through the bound path, allocates nothing once
// the bucket slabs have grown to the larger Q — under the PHL name and
// under IER-PHL, which over phl.Index is the same body, so a Reset to a
// different Q is as free for it.
func TestBoundPathWarmAlloc(t *testing.T) {
	g, ix, q := hotpathEnv(t)
	ierPHL, err := NewIERGPhi("IER-PHL", g, ix)
	if err != nil {
		t.Fatal(err)
	}
	qs := hotpathQueries(q)
	for _, gp := range []GPhi{NewOracleGPhi("PHL", ix), ierPHL} {
		run := func() {
			for _, query := range qs {
				gp.Reset(query.Q)
				tau := math.Inf(1)
				for _, p := range query.P {
					gp.Dist(p, query.K(), query.Agg)
					// The two-step walk under a running incumbent, as GD
					// takes it: the lower-bound buffer is the engine's.
					if d, ok := gp.(DistBelower).DistBelow(p, query.K(), query.Agg, tau); ok && d < tau {
						tau = d
					}
				}
			}
		}
		run()
		requireBound(t, gp)
		if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
			t.Fatalf("%s: warm Reset + |P| × (Dist + DistBelow) allocates %v objects, want 0", gp.Name(), allocs)
		}
	}
}

// countingBinder is a phl.Batcher that counts its binds.
type countingBinder struct {
	*phl.Batcher
	binds int
}

func (c *countingBinder) BindTargets(Q []graph.NodeID) {
	c.binds++
	c.Batcher.BindTargets(Q)
}

// TestBindOnFirstEvaluation pins when the engine binds Q: never in Reset
// (a request served from cached lists evaluates nothing and must bind
// nothing), once on the first evaluation after it — which is already
// exact — and not again until the next Reset.
func TestBindOnFirstEvaluation(t *testing.T) {
	_, ix, q := hotpathEnv(t)
	cb := &countingBinder{Batcher: ix.NewBatcher()}
	gp := NewOracleGPhi("PHL", cb)
	k := q.K()
	want := func(p graph.NodeID, Q []graph.NodeID, k int) float64 {
		ds := make([]float64, len(Q))
		for i, v := range Q {
			ds[i] = ix.Dist(p, v)
		}
		return flexAgg(ds, k, Max)
	}
	gp.Reset(q.Q)
	gp.Reset(q.Q[:12])
	gp.Reset(q.Q)
	if cb.binds != 0 {
		t.Fatalf("%d binds after three Resets and no evaluation, want 0", cb.binds)
	}
	for i, p := range q.P[:5] {
		if got, ok := gp.Dist(p, k, Max); !ok || math.Float64bits(got) != math.Float64bits(want(p, q.Q, k)) {
			t.Fatalf("evaluation %d after Reset: Dist(%d) = %v, want %v", i, p, got, want(p, q.Q, k))
		}
		if cb.binds != 1 {
			t.Fatalf("%d binds after %d evaluations of one Q, want 1", cb.binds, i+1)
		}
	}
	gp.Reset(q.Q[:12])
	p := q.P[7]
	if got, ok := gp.Dist(p, 6, Max); !ok || math.Float64bits(got) != math.Float64bits(want(p, q.Q[:12], 6)) {
		t.Fatalf("first evaluation of the next Q: Dist(%d) = %v, want %v", p, got, want(p, q.Q[:12], 6))
	}
	if cb.binds != 2 {
		t.Fatalf("%d binds after the second Q's first evaluation, want 2", cb.binds)
	}
}

// TestIERKNNZeroAllocSteadyState gates the IER-kNN framework the same
// way: with the R-tree over P prebuilt and the search state warm in the
// Scratch, repeated queries allocate nothing.
func TestIERKNNZeroAllocSteadyState(t *testing.T) {
	g, ix, q := hotpathEnv(t)
	gp := NewOracleGPhi("PHL", ix)
	rtP := BuildPTree(g, q.P)
	if _, err := IERKNN(g, rtP, gp, q, 1); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := IERKNN(g, rtP, gp, q, 1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("IER-kNN steady state allocates %v objects per query, want 0", allocs)
	}
}

// TestKIERKNNWarmAlloc gates the top-k path the benchmark serves
// (algo ier, engine IER-PHL, k = 10): with the incumbent heap, the
// visited set, the frontier, the answer list and the subsets warm in the
// Scratch, a query allocates nothing.
func TestKIERKNNWarmAlloc(t *testing.T) {
	g, ix, q := hotpathEnv(t)
	gp, err := NewIERGPhi("IER-PHL", g, ix)
	if err != nil {
		t.Fatal(err)
	}
	q.Agg = Sum
	rtP := BuildPTree(g, q.P)
	const kAns = 10
	ans, err := IERKNN(g, rtP, gp, q, kAns)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans) != kAns {
		t.Fatalf("warm-up returned %d answers, want %d", len(ans), kAns)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := IERKNN(g, rtP, gp, q, kAns); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("top-k IER-kNN steady state allocates %v objects per query, want 0", allocs)
	}
}

// TestDispatchGDWarmAlloc gates the served k = 1 path: a warm Dispatch
// allocates nothing — the answer list it returns lives in the Scratch.
func TestDispatchGDWarmAlloc(t *testing.T) {
	g, ix, q := hotpathEnv(t)
	gp := NewOracleGPhi("PHL", ix)
	qs := hotpathQueries(q) // Q changes between requests: each one binds
	run := func() {
		for _, query := range qs {
			if _, err := Dispatch(g, "gd", gp, query, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	run()
	requireBound(t, gp)
	if allocs := testing.AllocsPerRun(20, run) / 2; allocs != 0 {
		t.Fatalf("warm Dispatch(gd, k=1) allocates %v objects per query, want 0", allocs)
	}
}

// TestDispatchGDGTreeWarmAlloc is the same gate over the GTree engine,
// with Q changing between requests as it does under traffic: re-indexing
// the occurrence list, the querier's border vectors and its two heaps
// all reuse their storage, as do the answer list and its subset.
func TestDispatchGDGTreeWarmAlloc(t *testing.T) {
	g, _, q := hotpathEnv(t)
	tr, err := gtree.Build(g, gtree.Options{MaxLeafSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	gp := NewGTreeGPhi(tr)
	q2 := q
	q2.Q = append([]graph.NodeID(nil), q.P[:24]...)
	run := func() {
		for _, query := range []Query{q, q2} {
			if _, err := Dispatch(g, "gd", gp, query, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	run()
	if allocs := testing.AllocsPerRun(20, run) / 2; allocs != 0 {
		t.Fatalf("warm Dispatch(gd, GTree, k=1) allocates %v objects per query, want 0", allocs)
	}
}

// TestIEREngineWarmAlloc gates the Euclidean-restriction path of the
// IER-* family (a batching oracle that binds no targets — what IER-GTree
// runs on; here the PHL batcher with its binding hidden): once Reset has
// packed the R-tree over Q, a Reset to the same Q is free and repeated
// g_φ evaluations allocate nothing.
func TestIEREngineWarmAlloc(t *testing.T) {
	g, ix, q := hotpathEnv(t)
	gp, err := NewIERGPhi("IER-PHL", g, restrictOnly{ix.NewBatcher()})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := gp.(*engine).neighborSearch.(*ierEngine); !ok {
		t.Fatalf("a non-binding oracle got %T, want the restriction engine", gp)
	}
	gp.Reset(q.Q)
	k := q.K()
	if _, ok := gp.Dist(q.P[0], k, q.Agg); !ok {
		t.Fatal("warm-up Dist reported unreachable")
	}
	allocs := testing.AllocsPerRun(20, func() {
		gp.Reset(q.Q) // same Q: must be free
		for _, p := range q.P[:8] {
			gp.Dist(p, k, q.Agg)
		}
	})
	if allocs != 0 {
		t.Fatalf("IER engine warm evaluation allocates %v objects, want 0", allocs)
	}
}

// TestScratchAnswersDetached pins the aliasing contract from the
// pool's side: the answer list and its subsets live in the Scratch, so
// the next query on that Scratch overwrites them, and EnginePool.Run
// must hand back copies. Through a pool of capacity 1 the second call
// reuses the first call's Scratch; the first call's answers must come
// through it unchanged, at k = 1 and at k = 3.
func TestScratchAnswersDetached(t *testing.T) {
	g, ix, q := hotpathEnv(t)
	q2 := q
	q2.Q = q.P[len(q.P)-12:] // another Q: other answers, other subsets
	for _, k := range []int{1, 3} {
		pool := NewBoundedEnginePool("PHL", 1, PoolLimits{}, func() GPhi { return NewOracleGPhi("PHL", ix) })
		first, err := pool.Run(context.Background(), g, "gd", q, k, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]Answer, len(first))
		for i, a := range first {
			want[i] = Answer{P: a.P, Dist: a.Dist, Subset: slices.Clone(a.Subset)}
		}
		second, err := pool.Run(context.Background(), g, "gd", q2, k, nil)
		if err != nil {
			t.Fatal(err)
		}
		if second[0].P == want[0].P && slices.Equal(second[0].Subset, want[0].Subset) {
			t.Fatalf("k = %d: the second query answers like the first; it cannot show an overwrite", k)
		}
		for i := range want {
			if first[i].P != want[i].P || first[i].Dist != want[i].Dist || !slices.Equal(first[i].Subset, want[i].Subset) {
				t.Fatalf("k = %d: answer %d became %+v after the next query on its Scratch, was %+v", k, i, first[i], want[i])
			}
		}
	}
}

// BenchmarkAggOf measures the in-place aggregate fold (satellite: must
// not allocate).
func BenchmarkAggOf(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	dists := make([]float64, 128)
	for i := range dists {
		dists[i] = rng.Float64() * 1000
	}
	b.Run("max", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			aggOf(dists, 64, Max)
		}
	})
	b.Run("sum", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			aggOf(dists, 64, Sum)
		}
	})
	b.Run("flexAgg", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			flexAgg(dists, 64, Max)
		}
	})
}
