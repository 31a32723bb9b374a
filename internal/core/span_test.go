package core

import (
	"fmt"
	"testing"

	"fannr/internal/graph"
	"fannr/internal/obs"
	"fannr/internal/phl"
)

// statNames are the counter names spans report, in Stats field order.
var statNames = []string{
	"gphi_evals", "gphi_subsets", "heap_pops", "index_visits",
	"pruned", "settled",
}

func statByName(st *Stats, name string) int64 {
	switch name {
	case "gphi_evals":
		return st.GPhiEvals
	case "gphi_subsets":
		return st.GPhiSubsets
	case "heap_pops":
		return st.HeapPops
	case "index_visits":
		return st.IndexVisits
	case "pruned":
		return st.Pruned
	case "settled":
		return st.Settled
	}
	return -1
}

// runTraced executes one algorithm with a fresh trace+stats pair and
// verifies the explain invariant: per-span counts are disjoint and sum
// to exactly the Stats the run produced.
func runTraced(t *testing.T, g *graph.Graph, q Query, run func(Query) error) (*obs.Report, *Stats) {
	t.Helper()
	tr := obs.NewTrace("core-test")
	st := &Stats{}
	q.Trace = tr
	q.Stats = st
	if err := run(q); err != nil {
		t.Fatal(err)
	}
	rep := tr.Report()
	for _, name := range statNames {
		if got, want := rep.Counts[name], statByName(st, name); got != want {
			t.Errorf("report total %s = %d, stats say %d", name, got, want)
		}
	}
	return rep, st
}

// TestExplainSpanPerAlgorithm pins the span name and structure each
// algorithm emits — the golden explain-report contract: one name per
// algorithm whatever its k, stamped top_k (nested spans too) when k > 1.
func TestExplainSpanPerAlgorithm(t *testing.T) {
	g := statsGraph(t, 21)
	cases := []struct {
		name     string
		span     string
		agg      Aggregate
		children []string // nested span names, outermost child first
		run      func(Query, GPhi, int) error
	}{
		{name: "GD", span: "algo:gd", agg: Max,
			run: func(q Query, gp GPhi, k int) error { _, err := GD(g, gp, q, k); return err }},
		{name: "RList", span: "algo:rlist", agg: Max,
			run: func(q Query, gp GPhi, k int) error { _, err := RList(g, gp, q, k); return err }},
		{name: "IERKNN", span: "algo:ierknn", agg: Max,
			run: func(q Query, gp GPhi, k int) error {
				_, err := IERKNN(g, BuildPTree(g, q.P), gp, q, k)
				return err
			}},
		{name: "ExactMax", span: "algo:exactmax", agg: Max,
			run: func(q Query, gp GPhi, k int) error { _, err := ExactMax(g, gp, q, k); return err }},
		{name: "APXSum", span: "algo:apxsum", agg: Sum, children: []string{"algo:gd"},
			run: func(q Query, gp GPhi, k int) error { _, err := APXSum(g, gp, q, k); return err }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, k := range []int{1, 3} {
				t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
					gp := NewINE(g)
					q := statsQuery(g, 7, 30, 10, tc.agg)
					rep, st := runTraced(t, g, q, func(q Query) error {
						BindStats(gp, q.Stats)
						defer BindStats(gp, nil)
						return tc.run(q, gp, k)
					})
					if len(rep.Spans) != 1 {
						t.Fatalf("want 1 top-level span, got %d: %+v", len(rep.Spans), rep.Spans)
					}
					var topK any // absent at k = 1
					if k > 1 {
						topK = k
					}
					sp := rep.Spans[0]
					if sp.Name != tc.span {
						t.Fatalf("span name %q, want %q", sp.Name, tc.span)
					}
					if sp.Attrs["agg"] != tc.agg.String() {
						t.Errorf("agg attr = %v", sp.Attrs["agg"])
					}
					for _, child := range tc.children {
						if len(sp.Children) != 1 {
							t.Fatalf("%s: want nested span %q, children %+v", tc.span, child, sp.Children)
						}
						if sp.Attrs["top_k"] != topK {
							t.Errorf("%s: top_k attr = %v, want %v", sp.Name, sp.Attrs["top_k"], topK)
						}
						sp = sp.Children[0]
						if sp.Name != child {
							t.Fatalf("nested span %q, want %q", sp.Name, child)
						}
					}
					if sp.Attrs["top_k"] != topK {
						t.Errorf("%s: top_k attr = %v, want %v", sp.Name, sp.Attrs["top_k"], topK)
					}
					if st.GPhiEvals == 0 {
						t.Error("run produced no evals — test proves nothing")
					}
				})
			}
		})
	}
}

// TestExplainDelegationDisjoint pins the double-counting guard: APX-sum's
// span claims only the candidate-reduction work; the delegated GD scan's
// evals live on the nested span, and the two sum to the request total.
func TestExplainDelegationDisjoint(t *testing.T) {
	g := statsGraph(t, 22)
	gp := NewINE(g)
	q := statsQuery(g, 8, 30, 10, Sum)
	rep, st := runTraced(t, g, q, func(q Query) error {
		BindStats(gp, q.Stats)
		defer BindStats(gp, nil)
		_, err := APXSum(g, gp, q, 1)
		return err
	})
	apx := rep.Spans[0]
	gd := apx.Children[0]
	if apx.Counts["gphi_evals"] != 0 {
		t.Errorf("apxsum claims %d evals; the reduction phase performs none", apx.Counts["gphi_evals"])
	}
	if gd.Counts["gphi_evals"] == 0 {
		t.Error("nested gd span claims no evals")
	}
	if apx.Counts["settled"] == 0 {
		t.Error("apxsum span claims no settles; the reduction expands from every q")
	}
	if got := apx.Counts["gphi_evals"] + gd.Counts["gphi_evals"]; got != st.GPhiEvals {
		t.Errorf("span evals sum %d != stats %d", got, st.GPhiEvals)
	}
}

// TestExplainAbandonedOnTheEvaluatingSpan: the abandoned attribute is a
// part of gphi_evals, so it goes on the span whose loop ran the
// evaluations — the GD span nested in APX-sum's, not APX-sum's own — and
// equals what Stats counted.
func TestExplainAbandonedOnTheEvaluatingSpan(t *testing.T) {
	g := statsGraph(t, 22)
	ix, err := phl.Build(g, phl.Options{})
	if err != nil {
		t.Fatal(err)
	}
	gp := NewOracleGPhi("PHL", ix)
	q := statsQuery(g, 8, 60, 12, Sum)
	rep, st := runTraced(t, g, q, func(q Query) error {
		BindStats(gp, q.Stats)
		defer BindStats(gp, nil)
		_, err := APXSum(g, gp, q, 1)
		return err
	})
	apx := rep.Spans[0]
	gd := apx.Children[0]
	if st.GPhiAbandoned == 0 {
		t.Fatal("the ranking scan abandoned nothing — test proves nothing")
	}
	if _, ok := apx.Attrs["abandoned"]; ok {
		t.Errorf("apxsum span claims abandoned = %v; it evaluates nothing itself", apx.Attrs["abandoned"])
	}
	if got := gd.Attrs["abandoned"]; got != st.GPhiAbandoned {
		t.Errorf("gd span abandoned = %v, stats say %d", got, st.GPhiAbandoned)
	}
}

// TestKAPXSumStatsAttribution locks in the fix for the dropped-Stats bug:
// at k > 1 the delegated GD ranking phase must attribute its evals and
// the reduction expanders their settles.
func TestKAPXSumStatsAttribution(t *testing.T) {
	g := statsGraph(t, 23)
	gp := NewINE(g)
	q := statsQuery(g, 9, 30, 10, Sum)
	st := &Stats{}
	q.Stats = st
	BindStats(gp, st)
	defer BindStats(gp, nil)
	if _, err := APXSum(g, gp, q, 3); err != nil {
		t.Fatal(err)
	}
	if st.GPhiEvals == 0 {
		t.Error("top-k APX-sum ranking evals unattributed")
	}
	if st.Settled == 0 {
		t.Error("top-k APX-sum reduction settles unattributed")
	}
}

// TestTraceDisabledZeroAlloc is the overhead gate for the trace hook:
// with Trace nil (the steady-state serving path when no explain or slow
// capture needs spans... which still runs — the server always traces —
// but algorithms must stay zero-alloc for library users who don't), a
// warm GD and IER-kNN allocate nothing.
func TestTraceDisabledZeroAlloc(t *testing.T) {
	g, ix, q := hotpathEnv(t)
	q.Stats = &Stats{}
	q.Trace = nil
	gp := NewOracleGPhi("PHL", ix)
	BindStats(gp, q.Stats)
	defer BindStats(gp, nil)
	if _, err := GD(g, gp, q, 1); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := GD(g, gp, q, 1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("trace-disabled GD allocates %v per query, want 0", allocs)
	}
}

// Benchmarks for the trace overhead budget (<3% like the Stats hook):
// identical GD runs with the trace hook disabled vs. enabled.
func benchGDTrace(b *testing.B, traced bool) {
	g, err := graph.Generate(graph.GenConfig{Nodes: 500, Seed: 99, Name: "bench"})
	if err != nil {
		b.Fatal(err)
	}
	gp := NewINE(g)
	q := statsQuery(g, 9, 30, 12, Max)
	q.Stats = &Stats{}
	BindStats(gp, q.Stats)
	defer BindStats(gp, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if traced {
			q.Trace = obs.NewTrace("bench")
		}
		if _, err := GD(g, gp, q, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGDTraceDisabled(b *testing.B) { benchGDTrace(b, false) }
func BenchmarkGDTraceEnabled(b *testing.B)  { benchGDTrace(b, true) }
