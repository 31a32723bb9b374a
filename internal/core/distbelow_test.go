package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"fannr/internal/graph"
	"fannr/internal/gtree"
	"fannr/internal/phl"
	"fannr/internal/sp"
	"fannr/internal/workload"
)

// checkDistBelow holds one DistBelow call against the Dist it stands in
// for: a value under tau must come back bit for bit; at or over tau the
// engine may abandon (ok = false) or return that value all the same, and
// nothing else; an unreachable k is ok = false either way.
func checkDistBelow(t testing.TB, gp GPhi, p graph.NodeID, k int, agg Aggregate, tau float64) {
	t.Helper()
	want, wantOK := gp.Dist(p, k, agg)
	got, ok := gp.(DistBelower).DistBelow(p, k, agg, tau)
	switch {
	case ok && (!wantOK || math.Float64bits(got) != math.Float64bits(want)):
		t.Fatalf("%s: DistBelow(%d, k=%d, %v, τ=%v) = %v, Dist = (%v, %v)", gp.Name(), p, k, agg, tau, got, want, wantOK)
	case !ok && wantOK && want < tau:
		t.Fatalf("%s: DistBelow(%d, k=%d, %v, τ=%v) gave up on g_φ = %v, which is under τ by %g", gp.Name(), p, k, agg, tau, want, tau-want)
	}
}

// everyEngine is the engine suite difftest.NewEnv assembles, over g and
// its hub labels ix: INE, the oracle engines over A*, PHL and the G-tree,
// the G-tree occurrence-list engine, and IER over A* and PHL. g must
// carry coordinates.
func everyEngine(t testing.TB, g *graph.Graph, ix *phl.Index) []GPhi {
	t.Helper()
	tr, err := gtree.Build(g, gtree.Options{MaxLeafSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	engines := []GPhi{
		NewINE(g),
		NewOracleGPhi("A*", sp.NewAStar(g)),
		NewOracleGPhi("PHL", ix),
		NewOracleGPhi("GTree-SPSP", tr.NewQuerier()),
		NewGTreeGPhi(tr),
	}
	for _, spec := range []struct {
		name string
		o    Oracle
	}{
		{"IER-A*", sp.NewAStar(g)},
		{"IER-PHL", ix},
	} {
		e, err := NewIERGPhi(spec.name, g, spec.o)
		if err != nil {
			t.Fatal(err)
		}
		engines = append(engines, e)
	}
	return engines
}

// TestDistBelowNeverRejectsABetterPoint is the admissibility gate of the
// bound path (ROADMAP 3(b)'s first instance): over a road-like graph
// with an island and the unit-weight grid with its detached chain —
// members of Q out of reach on both — for every engine, both aggregates
// and every k from 1 to |Q|, a threshold just above g_φ(p, Q) (one ulp,
// a 1e-12 share, half again, +Inf) returns it bit for bit, and one at or
// under it returns false or that value. The thresholds at and under must
// actually reject: a DistBelow that never abandons would pass the rest
// vacuously.
func TestDistBelowNeverRejectsABetterPoint(t *testing.T) {
	road, ix, island := islandGraph(t)
	grid := unitGrid(t, 12)
	gridIx, err := phl.Build(grid, phl.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, env := range []struct {
		name    string
		g       *graph.Graph
		ix      *phl.Index
		outside []graph.NodeID // nodes the main component cannot reach
	}{
		{"road", road, ix, island},
		{"grid", grid, gridIx, []graph.NodeID{144, 146, 148}},
	} {
		n := env.g.NumNodes()
		for _, gp := range everyEngine(t, env.g, env.ix) {
			var st Stats
			BindStats(gp, &st)
			rng := rand.New(rand.NewSource(26))
			probes, rejected := 0, int64(0)
			for trial := 0; trial < 12; trial++ {
				m := 2 + rng.Intn(14)
				Q := append([]graph.NodeID{}, env.outside[:2]...)
				for _, v := range rng.Perm(n)[:m] {
					Q = append(Q, graph.NodeID(v))
				}
				Q = dedupeNodes(Q)
				gp.Reset(Q)
				for _, p := range []graph.NodeID{graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)), Q[len(Q)-1], env.outside[2]} {
					for k := 1; k <= len(Q); k++ {
						for _, agg := range []Aggregate{Max, Sum} {
							d, ok := gp.Dist(p, k, agg)
							if !ok {
								checkDistBelow(t, gp, p, k, agg, 1)
								checkDistBelow(t, gp, p, k, agg, math.Inf(1))
								st.GPhiAbandoned = 0 // out of reach and abandoned both read ok = false
								continue
							}
							for _, tau := range []float64{math.Nextafter(d, math.Inf(1)), d * (1 + 1e-12), 1.5 * d, math.Inf(1)} {
								if tau > d { // d = 0 leaves its multiples at 0
									checkDistBelow(t, gp, p, k, agg, tau)
								}
							}
							if st.GPhiAbandoned != 0 {
								t.Fatalf("%s/%s: an evaluation was abandoned under a threshold above its value", env.name, gp.Name())
							}
							for _, tau := range []float64{d, math.Nextafter(d, 0), 0.99 * d, 0.5 * d, 0} {
								probes++
								checkDistBelow(t, gp, p, k, agg, tau)
							}
							rejected += st.GPhiAbandoned
							st.GPhiAbandoned = 0
						}
					}
				}
			}
			if rejected == 0 {
				t.Fatalf("%s/%s: none of %d probes at or under g_φ was abandoned", env.name, gp.Name(), probes)
			}
			t.Logf("%s/%s: %d of %d probes at or under g_φ abandoned", env.name, gp.Name(), rejected, probes)
		}
	}
}

// TestDistBelowOnlyWhereItPays: an oracle engine over an oracle that
// cannot bind Q has nothing to bound with but the Euclidean pre-bound,
// so on a graph without coordinates it has the capability (one type) but
// never abandons — over the hub labels with their binding hidden and
// over A* alike, even at a threshold of 0.
func TestDistBelowOnlyWhereItPays(t *testing.T) {
	road, _, q := hotpathEnv(t)
	b := graph.NewBuilder(road.NumNodes())
	for _, e := range road.Edges(nil) {
		_ = b.AddEdge(e.U, e.V, e.W)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ix, err := phl.Build(g, phl.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, gp := range []GPhi{
		NewOracleGPhi("PHL-restricted", restrictOnly{ix.NewBatcher()}),
		NewOracleGPhi("A*", sp.NewAStar(g)),
	} {
		var st Stats
		BindStats(gp, &st)
		gp.Reset(q.Q)
		for _, p := range q.P {
			checkDistBelow(t, gp, p, q.K(), Max, 0)
		}
		if st.GPhiAbandoned != 0 {
			t.Fatalf("%s without coordinates abandoned %d evaluations", gp.Name(), st.GPhiAbandoned)
		}
	}
}

// TestGDAbandonsAndAnswersTheSame runs GD, IER-kNN and R-List, single
// answer and top-3, through an engine and through the same engine with
// DistBelow hidden: the answers are equal bit for bit, the count of
// evaluations is the same, and only the first arm abandons any — GD
// some, under either aggregate. The engines are PHL, which bounds off
// its label walk, and GTree on a copy of the graph without coordinates,
// where the Euclidean pre-bound cannot fire and every abandonment is the
// fold's stop rule on the G-tree stream.
func TestGDAbandonsAndAnswersTheSame(t *testing.T) {
	g, ix, q := hotpathEnv(t)
	q.Scratch = nil
	rtP := BuildPTree(g, q.P)
	b := graph.NewBuilder(g.NumNodes())
	for _, e := range g.Edges(nil) {
		_ = b.AddEdge(e.U, e.V, e.W)
	}
	bare, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := gtree.Build(bare, gtree.Options{MaxLeafSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	for engine, newGP := range map[string]func() GPhi{
		"PHL":   func() GPhi { return NewOracleGPhi("PHL", ix) },
		"GTree": func() GPhi { return NewGTreeGPhi(tr) },
	} {
		for _, agg := range []Aggregate{Max, Sum} {
			for _, kAns := range []int{1, 3} {
				for name, run := range map[string]func(GPhi, Query) ([]Answer, error){
					"gd":    func(gp GPhi, q Query) ([]Answer, error) { return GD(g, gp, q, kAns) },
					"ier":   func(gp GPhi, q Query) ([]Answer, error) { return IERKNN(g, rtP, gp, q, kAns) },
					"rlist": func(gp GPhi, q Query) ([]Answer, error) { return RList(g, gp, q, kAns) },
				} {
					var with, without Stats
					bounded, plain := newGP(), newGP()
					BindStats(bounded, &with)
					BindStats(plain, &without)
					qa, qb := q, q
					qa.Agg, qa.Stats = agg, &with
					qb.Agg, qb.Stats = agg, &without
					got, err := run(bounded, qa)
					if err != nil {
						t.Fatal(err)
					}
					want, err := run(distOnly{plain}, qb)
					if err != nil {
						t.Fatal(err)
					}
					label := fmt.Sprintf("%s/%s/%v/top-%d", engine, name, agg, kAns)
					if len(got) != len(want) {
						t.Fatalf("%s: %d answers with DistBelow, %d without", label, len(got), len(want))
					}
					for i := range got {
						if got[i].P != want[i].P || math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
							t.Fatalf("%s: answer %d is (%d, %v) with DistBelow, (%d, %v) without", label, i, got[i].P, got[i].Dist, want[i].P, want[i].Dist)
						}
					}
					if with.GPhiEvals != without.GPhiEvals || without.GPhiAbandoned != 0 {
						t.Fatalf("%s: evals %d / abandoned %d with DistBelow, %d / %d without", label, with.GPhiEvals, with.GPhiAbandoned, without.GPhiEvals, without.GPhiAbandoned)
					}
					if name == "gd" && with.GPhiAbandoned == 0 {
						t.Fatalf("%s: GD over %d points abandoned none", label, len(q.P))
					}
				}
			}
		}
	}
}

// distOnly hides every optional capability of an engine, DistBelow
// among them: the search loops then evaluate through Dist alone.
type distOnly struct{ GPhi }

// fuzzGraph is a connected random graph on n nodes, or with islands two
// components split at n·2/3, edge weights in [1, 10) — whole numbers for
// an even seed, so that distances tie and every bound is exact — and
// nodes at random points of a 10 × 10 square, so the Euclidean bound of
// the fastest edge meets its weight to the last few bits.
func fuzzGraph(t testing.TB, n int, seed int64, islands bool) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	weight := func() float64 {
		w := 1 + rng.Float64()*9
		if seed%2 == 0 {
			w = math.Floor(w)
		}
		return w
	}
	cut := n
	if islands {
		cut = max(1, n*2/3)
	}
	side := func(v int) (lo, size int) {
		if v < cut {
			return 0, cut
		}
		return cut, n - cut
	}
	for v := 1; v < n; v++ {
		if lo, _ := side(v); v > lo {
			_ = b.AddEdge(graph.NodeID(v), graph.NodeID(lo+rng.Intn(v-lo)), weight())
		}
	}
	for i := 0; i < 2*n; i++ {
		u := rng.Intn(n)
		lo, size := side(u)
		if v := lo + rng.Intn(size); u != v {
			_ = b.AddEdge(graph.NodeID(u), graph.NodeID(v), weight())
		}
	}
	x, y := make([]float64, n), make([]float64, n)
	for v := range x {
		x[v], y[v] = 10*rng.Float64(), 10*rng.Float64()
	}
	if err := b.SetCoords(x, y); err != nil {
		t.Fatal(err)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// FuzzDistBelow: any graph shape, any Q (deduplicated, as Validate hands
// it to an engine), any k, either aggregate and any threshold — given as
// a factor of the true g_φ so the fuzzer can sit on the boundary, or
// taken as it is when no k members are reachable — every engine's
// DistBelow answers as checkDistBelow demands, from every node.
func FuzzDistBelow(f *testing.F) {
	f.Add(int64(1), uint8(40), false, []byte{0, 1, 2, 3}, uint8(2), false, 1.0)
	f.Add(int64(2), uint8(9), true, []byte{8, 1}, uint8(1), true, 0.999999999)
	f.Add(int64(3), uint8(61), true, []byte{7, 9, 250, 60, 0, 33}, uint8(5), true, 1.0000000001)
	f.Add(int64(4), uint8(30), false, []byte{5, 6, 7, 8, 9, 10, 11, 12}, uint8(8), false, 0.5)
	f.Add(int64(5), uint8(30), false, []byte{5}, uint8(1), true, math.Inf(1))
	f.Fuzz(func(t *testing.T, seed int64, size uint8, islands bool, raw []byte, kRaw uint8, sum bool, factor float64) {
		n := 2 + int(size)%62
		g := fuzzGraph(t, n, seed, islands)
		ix, err := phl.Build(g, phl.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(raw) > 32 {
			raw = raw[:32]
		}
		Q := make([]graph.NodeID, len(raw))
		for i, c := range raw {
			Q[i] = graph.NodeID(int(c) % n)
		}
		if Q = dedupeNodes(Q); len(Q) == 0 {
			return
		}
		k := 1 + int(kRaw)%len(Q)
		agg := Max
		if sum {
			agg = Sum
		}
		if math.IsNaN(factor) {
			return
		}
		for _, gp := range everyEngine(t, g, ix) {
			gp.Reset(Q)
			for p := 0; p < n; p++ {
				tau := factor
				if d, ok := gp.Dist(graph.NodeID(p), k, agg); ok {
					tau = d * factor
				}
				checkDistBelow(t, gp, graph.NodeID(p), k, agg, tau)
			}
		}
	})
}

// BenchmarkGDAbandon is the evidence for boundHubs and for the engines'
// early exits: GD through Dispatch on NW 1/64. PHL runs at the three
// shapes the benchmark serves through it — shard4's per-shard slice (211
// points, clustered Q of 8 at A = 25 %), gd-phl-max-dense (d = 0.01, 169
// points, M = 128) and gd-phl-sum (d = 0.001, 17 points, M = 128) — with
// the prefix stopped after 2, 4 and 8 hubs. GTree runs at gd-gtree-max's
// shape (17 points, M = 128) and INE at rlist-ine-sum's (169 points,
// M = 32), each with its native exit alone (the Euclidean pre-bound
// cleared) and with the pre-bound in front. Every arm is against the
// same engine with DistBelow hidden (bare Dist for every point), over
// both aggregates. Q changes on every request, so each pays its bind, as
// traffic does. abandoned/eval is the share of evaluations the bounds
// ended.
func BenchmarkGDAbandon(b *testing.B) {
	g, err := workload.LoadDataset("NW", 1.0/64)
	if err != nil {
		b.Fatal(err)
	}
	ix, err := phl.Build(g, phl.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for _, shape := range []struct {
		name  string
		nP    int
		drawQ func(*workload.Generator) []graph.NodeID
	}{
		{"shard4-slice-211xM8", 211, func(gen *workload.Generator) []graph.NodeID { return gen.ClusteredQ(0.25, 8, 2) }},
		{"dense-169xM128", 169, func(gen *workload.Generator) []graph.NodeID { return gen.UniformQ(0.10, 128) }},
		{"sparse-17xM128", 17, func(gen *workload.Generator) []graph.NodeID { return gen.UniformQ(0.10, 128) }},
	} {
		gen := workload.NewGenerator(g, 26)
		P := gen.UniformP(0.05)[:shape.nP]
		qs := make([]Query, 16)
		for i := range qs {
			qs[i] = Query{P: P, Q: shape.drawQ(gen), Phi: 0.5, Scratch: NewScratch(), Stats: &Stats{}}
		}
		for _, agg := range []Aggregate{Max, Sum} {
			for _, hubs := range []int{0, 2, 4, 8} {
				name := fmt.Sprintf("%s/%v/hubs=%d", shape.name, agg, hubs)
				if hubs == 0 {
					name = fmt.Sprintf("%s/%v/dist", shape.name, agg)
				}
				b.Run(name, func(b *testing.B) {
					eng := NewOracleGPhi("PHL", ix).(*oracleEngine)
					eng.hubs = hubs
					var st Stats
					eng.BindStats(&st)
					var gp GPhi = eng
					if hubs == 0 {
						gp = distOnly{eng}
					}
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						q := qs[i%len(qs)]
						q.Agg = agg
						if _, err := Dispatch(g, "gd", gp, q, 1); err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(float64(st.GPhiAbandoned)/float64(b.N*shape.nP), "abandoned/eval")
				})
			}
		}
	}
	tr, err := gtree.Build(g, gtree.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for _, shape := range []struct {
		name  string
		nP, m int
		newGP func() GPhi
	}{
		{"gtree-17xM128", 17, 128, func() GPhi { return NewGTreeGPhi(tr) }},
		{"ine-169xM32", 169, 32, func() GPhi { return NewINE(g) }},
	} {
		gen := workload.NewGenerator(g, 26)
		P := gen.UniformP(0.05)[:shape.nP]
		qs := make([]Query, 16)
		for i := range qs {
			qs[i] = Query{P: P, Q: gen.UniformQ(0.10, shape.m), Phi: 0.5, Scratch: NewScratch(), Stats: &Stats{}}
		}
		for _, agg := range []Aggregate{Max, Sum} {
			for _, arm := range []string{"dist", "native", "prebound"} {
				b.Run(fmt.Sprintf("%s/%v/%s", shape.name, agg, arm), func(b *testing.B) {
					eng := shape.newGP().(*engine)
					if arm == "native" {
						eng.lb.g = nil
					}
					var st Stats
					eng.BindStats(&st)
					var gp GPhi = eng
					if arm == "dist" {
						gp = distOnly{eng}
					}
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						q := qs[i%len(qs)]
						q.Agg = agg
						if _, err := Dispatch(g, "gd", gp, q, 1); err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(float64(st.GPhiAbandoned)/float64(b.N*shape.nP), "abandoned/eval")
				})
			}
		}
	}
}
