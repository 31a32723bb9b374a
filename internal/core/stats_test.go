package core

import (
	"math/rand"
	"testing"

	"fannr/internal/graph"
	"fannr/internal/sp"
)

// statsQuery draws disjoint-ish P and Q for op-count tests.
func statsQuery(g *graph.Graph, seed int64, np, nq int, agg Aggregate) Query {
	rng := rand.New(rand.NewSource(seed))
	pickSet := func(count int) []graph.NodeID {
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
	return Query{P: pickSet(np), Q: pickSet(nq), Phi: 0.5, Agg: agg}
}

func statsGraph(t testing.TB, seed int64) *graph.Graph {
	t.Helper()
	g, err := graph.Generate(graph.GenConfig{Nodes: 300, Seed: seed, Name: "stats"})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// GD evaluates g_φ for every p ∈ P exactly once and builds one subset.
func TestStatsGDCounts(t *testing.T) {
	g := statsGraph(t, 11)
	gp := NewINE(g)
	q := statsQuery(g, 1, 25, 10, Max)
	st := &Stats{}
	q.Stats = st
	BindStats(gp, st)
	defer BindStats(gp, nil)
	if _, err := GD(g, gp, q); err != nil {
		t.Fatal(err)
	}
	if st.GPhiEvals != int64(len(q.P)) {
		t.Fatalf("GD evals = %d, want |P| = %d", st.GPhiEvals, len(q.P))
	}
	if st.GPhiSubsets != 1 {
		t.Fatalf("GD subsets = %d, want 1", st.GPhiSubsets)
	}
	if st.Settled == 0 {
		t.Fatal("INE engine reported no Dijkstra settles")
	}
}

// R-List prunes: it must never evaluate more candidates than GD, must pop
// from the multi-source expansion, and must attribute its settles.
func TestStatsRListCounts(t *testing.T) {
	g := statsGraph(t, 12)
	gp := NewINE(g)
	q := statsQuery(g, 2, 40, 10, Max)
	st := &Stats{}
	q.Stats = st
	BindStats(gp, st)
	defer BindStats(gp, nil)
	if _, err := RList(g, gp, q); err != nil {
		t.Fatal(err)
	}
	if st.GPhiEvals == 0 || st.GPhiEvals > int64(len(q.P)) {
		t.Fatalf("RList evals = %d, want in [1, %d]", st.GPhiEvals, len(q.P))
	}
	if st.HeapPops == 0 {
		t.Fatal("RList reported no heap pops")
	}
	if st.HeapPops < st.GPhiEvals {
		t.Fatalf("RList pops %d < evals %d: every eval follows a pop", st.HeapPops, st.GPhiEvals)
	}
	if st.Settled == 0 {
		t.Fatal("RList reported no settles from its expander pool")
	}
	if st.GPhiSubsets != 1 {
		t.Fatalf("RList subsets = %d, want 1", st.GPhiSubsets)
	}
}

// IER-kNN walks the R-tree over P (index visits) and prunes whatever is
// still queued when the Euclidean bound passes the incumbent.
func TestStatsIERKNNCounts(t *testing.T) {
	g := statsGraph(t, 13)
	gp := NewINE(g)
	q := statsQuery(g, 3, 40, 10, Max)
	st := &Stats{}
	q.Stats = st
	BindStats(gp, st)
	defer BindStats(gp, nil)
	rtP := BuildPTree(g, q.P)
	if _, err := IERKNN(g, rtP, gp, q); err != nil {
		t.Fatal(err)
	}
	if st.GPhiEvals == 0 || st.GPhiEvals > int64(len(q.P)) {
		t.Fatalf("IER-kNN evals = %d, want in [1, %d]", st.GPhiEvals, len(q.P))
	}
	if st.IndexVisits == 0 {
		t.Fatal("IER-kNN reported no index visits")
	}
	if st.HeapPops == 0 {
		t.Fatal("IER-kNN reported no heap pops")
	}
	if st.GPhiSubsets != 1 {
		t.Fatalf("IER-kNN subsets = %d, want 1", st.GPhiSubsets)
	}
}

// Exact-max's selling point: the expensive g_φ runs exactly once.
func TestStatsExactMaxSingleEval(t *testing.T) {
	g := statsGraph(t, 14)
	gp := NewINE(g)
	q := statsQuery(g, 4, 40, 10, Max)
	st := &Stats{}
	q.Stats = st
	BindStats(gp, st)
	defer BindStats(gp, nil)
	if _, err := ExactMax(g, gp, q); err != nil {
		t.Fatal(err)
	}
	if st.GPhiEvals != 1 {
		t.Fatalf("Exact-max evals = %d, want exactly 1", st.GPhiEvals)
	}
	if st.HeapPops == 0 || st.Settled == 0 {
		t.Fatalf("Exact-max pops=%d settled=%d, want both > 0", st.HeapPops, st.Settled)
	}
}

// APX-sum restricts candidates to ≤ |Q| nearest neighbors, then delegates
// to GD — so evals are bounded by |Q|, not |P|.
func TestStatsAPXSumCounts(t *testing.T) {
	g := statsGraph(t, 15)
	gp := NewINE(g)
	q := statsQuery(g, 5, 60, 8, Sum)
	st := &Stats{}
	q.Stats = st
	BindStats(gp, st)
	defer BindStats(gp, nil)
	if _, err := APXSum(g, gp, q); err != nil {
		t.Fatal(err)
	}
	if st.GPhiEvals == 0 || st.GPhiEvals > int64(len(q.Q)) {
		t.Fatalf("APX-sum evals = %d, want in [1, |Q|=%d]", st.GPhiEvals, len(q.Q))
	}
	if st.Settled == 0 {
		t.Fatal("APX-sum reported no settles from its per-q expansions")
	}
}

// The k-FANN adaptations produce one subset per answer.
func TestStatsKFANNSubsets(t *testing.T) {
	g := statsGraph(t, 16)
	gp := NewINE(g)
	q := statsQuery(g, 6, 40, 10, Max)
	const kAns = 3
	st := &Stats{}
	q.Stats = st
	BindStats(gp, st)
	defer BindStats(gp, nil)
	ans, err := KGD(g, gp, q, kAns)
	if err != nil {
		t.Fatal(err)
	}
	if st.GPhiSubsets != int64(len(ans)) {
		t.Fatalf("KGD subsets = %d, want one per answer (%d)", st.GPhiSubsets, len(ans))
	}
	if st.GPhiEvals != int64(len(q.P)) {
		t.Fatalf("KGD evals = %d, want |P| = %d", st.GPhiEvals, len(q.P))
	}
}

// Oracle-backed engines attribute settles when the oracle counts them.
func TestStatsOracleEngineSettles(t *testing.T) {
	g := statsGraph(t, 17)
	gp := NewOracleGPhi("A*", sp.NewAStar(g))
	q := statsQuery(g, 7, 15, 8, Max)
	st := &Stats{}
	q.Stats = st
	BindStats(gp, st)
	defer BindStats(gp, nil)
	if _, err := GD(g, gp, q); err != nil {
		t.Fatal(err)
	}
	if st.Settled == 0 {
		t.Fatal("A* oracle engine reported no settles")
	}
}

// BindStats on an engine that is not a StatsSink must be a silent no-op.
func TestBindStatsNonSinkNoOp(t *testing.T) {
	BindStats(plainGPhi{}, &Stats{}) // must not panic
	BindStats(plainGPhi{}, nil)
}

type plainGPhi struct{}

func (plainGPhi) Name() string                                                    { return "plain" }
func (plainGPhi) Reset([]graph.NodeID)                                            {}
func (plainGPhi) Dist(graph.NodeID, int, Aggregate) (float64, bool)               { return 0, false }
func (plainGPhi) Subset(_ graph.NodeID, _ int, dst []graph.NodeID) []graph.NodeID { return dst }

// Add folds one Stats into another; nil receivers and sources are inert.
func TestStatsAdd(t *testing.T) {
	a := &Stats{GPhiEvals: 1, HeapPops: 2, Settled: 3}
	b := Stats{GPhiEvals: 10, GPhiSubsets: 5, IndexVisits: 7, Pruned: 4, Settled: 30}
	a.Add(b)
	if a.GPhiEvals != 11 || a.GPhiSubsets != 5 || a.HeapPops != 2 ||
		a.IndexVisits != 7 || a.Pruned != 4 || a.Settled != 33 {
		t.Fatalf("Add folded wrong: %+v", *a)
	}
	var nilStats *Stats
	nilStats.Add(b) // must not panic
}

// The disabled hook — every counting method on a nil *Stats — must not
// allocate. This is the guard referenced by the Stats doc comment.
func TestStatsDisabledZeroAlloc(t *testing.T) {
	var s *Stats
	allocs := testing.AllocsPerRun(1000, func() {
		s.CountEval()
		s.CountSubset()
		s.CountPop()
		s.CountVisit()
		s.CountPruned(3)
		s.CountSettled(7)
	})
	if allocs != 0 {
		t.Fatalf("disabled Stats hook allocated %.1f per run, want 0", allocs)
	}
}

// Benchmarks for the overhead guard (`make bench-overhead`): GD over the
// same environment with the Stats hook disabled vs. enabled. The disabled
// path is a handful of nil pointer tests per query and must stay within
// the §11 budget (< 3% vs. an uninstrumented build; in practice ~0).
func benchGD(b *testing.B, st *Stats) {
	g, err := graph.Generate(graph.GenConfig{Nodes: 500, Seed: 99, Name: "bench"})
	if err != nil {
		b.Fatal(err)
	}
	gp := NewINE(g)
	q := statsQuery(g, 9, 30, 12, Max)
	q.Stats = st
	BindStats(gp, st)
	defer BindStats(gp, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := GD(g, gp, q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGDStatsDisabled(b *testing.B) { benchGD(b, nil) }
func BenchmarkGDStatsEnabled(b *testing.B)  { benchGD(b, &Stats{}) }
