package core

import (
	"math/rand"
	"testing"

	"fannr/internal/graph"
)

// These tests turn the paper's efficiency arguments into assertions on
// g_φ invocation counts, read from the query's Stats.

func TestInvocationCounts(t *testing.T) {
	env := newTestEnv(t, 800, 60)
	rng := rand.New(rand.NewSource(61))
	gp := NewINE(env.g)
	for trial := 0; trial < 5; trial++ {
		q := env.randomQuery(rng, 60, 12, 0.5, Max)
		rtP := BuildPTree(env.g, q.P)
		// counted runs one algorithm and returns the op counts it spent.
		// Whatever the search loop evaluates, only the single answer's
		// φ-subset is materialised: one subset per query.
		counted := func(q Query, run func(Query) (Answer, error)) Stats {
			t.Helper()
			var st Stats
			q.Stats = &st
			if _, err := run(q); err != nil {
				t.Fatal(err)
			}
			if st.GPhiEvals <= 0 || st.GPhiSubsets != 1 {
				t.Fatalf("op counts %+v, want evals > 0 and exactly one subset", st)
			}
			return st
		}

		gd := counted(q, func(q Query) (Answer, error) { return first(GD(env.g, gp, q, 1)) })
		if gd.GPhiEvals != int64(len(q.P)) {
			t.Fatalf("GD evaluated %d points, want |P| = %d", gd.GPhiEvals, len(q.P))
		}

		// Exact-max runs g_φ exactly once (§IV-A): "we can run the time
		// consuming g_φ only once".
		em := counted(q, func(q Query) (Answer, error) { return first(ExactMax(env.g, gp, q, 1)) })
		if em.GPhiEvals != 1 {
			t.Fatalf("Exact-max ran g_φ %d times, want exactly 1", em.GPhiEvals)
		}

		// R-List and IER-kNN terminate early: never more evaluations than
		// GD's full enumeration.
		rl := counted(q, func(q Query) (Answer, error) { return first(RList(env.g, gp, q, 1)) })
		if rl.GPhiEvals > int64(len(q.P)) {
			t.Fatalf("R-List evaluated %d > |P| = %d points", rl.GPhiEvals, len(q.P))
		}
		if rl.Settled == 0 {
			t.Fatal("R-List reported no settles")
		}

		ier := counted(q, func(q Query) (Answer, error) { return first(IERKNN(env.g, rtP, gp, q, 1)) })
		if ier.GPhiEvals > int64(len(q.P)) {
			t.Fatalf("IER-kNN evaluated %d > |P| = %d points", ier.GPhiEvals, len(q.P))
		}

		// APX-sum examines at most |Q| candidates (Algorithm 3).
		qs := q
		qs.Agg = Sum
		apx := counted(qs, func(q Query) (Answer, error) { return first(APXSum(env.g, gp, q, 1)) })
		if apx.GPhiEvals > int64(len(q.Q)) {
			t.Fatalf("APX-sum evaluated %d > |Q| = %d candidates", apx.GPhiEvals, len(q.Q))
		}
	}
}

// The IER-kNN Euclidean bound should prune meaningfully on clustered
// workloads: with Q concentrated in one corner, far-away data points are
// never evaluated.
func TestIERPrunesAgainstGD(t *testing.T) {
	env := newTestEnv(t, 1000, 62)
	rng := rand.New(rand.NewSource(63))
	gp := NewINE(env.g)
	totalGD := int64(0)
	var ier Stats
	for trial := 0; trial < 8; trial++ {
		q := env.randomQuery(rng, 120, 10, 0.5, Max)
		q.Stats = &ier
		if _, err := IERKNN(env.g, BuildPTree(env.g, q.P), gp, q, 1); err != nil {
			t.Fatal(err)
		}
		totalGD += int64(len(q.P))
	}
	if ier.GPhiEvals >= totalGD {
		t.Fatalf("IER-kNN evaluated %d of %d candidates — no pruning at all", ier.GPhiEvals, totalGD)
	}
	t.Logf("IER-kNN evaluated %d of %d candidates (%.0f%% pruned)",
		ier.GPhiEvals, totalGD, 100*(1-float64(ier.GPhiEvals)/float64(totalGD)))
}

// TestLaneCountsPinned pins the work of the two lane algorithms over INE
// — settles, pops and g_φ evaluations — on fixed seeded queries, so a
// change to how the lanes expand shows here and not only in the
// benchmark's traced run. Each case runs cold and again on a Scratch
// whose lanes the other cases have armed; both must spend the same.
// Half the cases put a query point on a data point, which its lane
// reports first, at distance 0.
func TestLaneCountsPinned(t *testing.T) {
	g, err := graph.Generate(graph.GenConfig{Nodes: 1500, Seed: 90, Name: "lanes"})
	if err != nil {
		t.Fatal(err)
	}
	env := &testEnv{g: g}
	gp := NewINE(g)
	scratch := NewScratch()
	cases := []struct {
		exactMax bool
		k        int
		seed     int64
		want     [3]int64 // Settled, HeapPops, GPhiEvals
	}{
		{false, 1, 1, [3]int64{1169, 48, 34}},
		{false, 1, 2, [3]int64{835, 32, 25}},
		{false, 3, 1, [3]int64{1224, 51, 35}},
		{false, 3, 2, [3]int64{1344, 55, 34}},
		{true, 1, 1, [3]int64{2392, 109, 1}},
		{true, 1, 2, [3]int64{1943, 82, 1}},
		{true, 3, 1, [3]int64{2874, 135, 3}},
		{true, 3, 2, [3]int64{2201, 97, 3}},
	}
	for _, c := range cases {
		rng := rand.New(rand.NewSource(c.seed))
		q := env.randomQuery(rng, 80, 10, 0.5, Sum)
		if c.seed%2 == 0 {
			q.Q[0] = q.P[0]
		}
		run, name := RList, "R-List"
		if c.exactMax {
			run, name, q.Agg = ExactMax, "Exact-max", Max
		}
		for _, sc := range []*Scratch{nil, scratch} {
			var st Stats
			q.Stats, q.Scratch = &st, sc
			if _, err := run(g, gp, q, c.k); err != nil {
				t.Fatal(err)
			}
			got := [3]int64{st.Settled, st.HeapPops, st.GPhiEvals}
			if got != c.want {
				t.Errorf("%s k=%d seed %d scratch=%v: settled, pops, evals = %v, want %v", name, c.k, c.seed, sc != nil, got, c.want)
			}
		}
	}
}
