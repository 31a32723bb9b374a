package core

import (
	"math/rand"
	"testing"
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

		gd := counted(q, func(q Query) (Answer, error) { return GD(env.g, gp, q) })
		if gd.GPhiEvals != int64(len(q.P)) {
			t.Fatalf("GD evaluated %d points, want |P| = %d", gd.GPhiEvals, len(q.P))
		}

		// Exact-max runs g_φ exactly once (§IV-A): "we can run the time
		// consuming g_φ only once".
		em := counted(q, func(q Query) (Answer, error) { return ExactMax(env.g, gp, q) })
		if em.GPhiEvals != 1 {
			t.Fatalf("Exact-max ran g_φ %d times, want exactly 1", em.GPhiEvals)
		}

		// R-List and IER-kNN terminate early: never more evaluations than
		// GD's full enumeration.
		rl := counted(q, func(q Query) (Answer, error) { return RList(env.g, gp, q) })
		if rl.GPhiEvals > int64(len(q.P)) {
			t.Fatalf("R-List evaluated %d > |P| = %d points", rl.GPhiEvals, len(q.P))
		}
		if rl.Settled == 0 {
			t.Fatal("R-List reported no settles")
		}

		ier := counted(q, func(q Query) (Answer, error) { return IERKNN(env.g, rtP, gp, q) })
		if ier.GPhiEvals > int64(len(q.P)) {
			t.Fatalf("IER-kNN evaluated %d > |P| = %d points", ier.GPhiEvals, len(q.P))
		}

		// APX-sum examines at most |Q| candidates (Algorithm 3).
		qs := q
		qs.Agg = Sum
		apx := counted(qs, func(q Query) (Answer, error) { return APXSum(env.g, gp, q) })
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
		if _, err := IERKNN(env.g, BuildPTree(env.g, q.P), gp, q); err != nil {
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
