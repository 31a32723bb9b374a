package core

import (
	"math"
	"math/rand"
	"testing"
)

func TestKAPXSumRankOneKeepsBound(t *testing.T) {
	env := newTestEnv(t, 600, 70)
	rng := rand.New(rand.NewSource(71))
	gp := env.engines[0] // INE
	for trial := 0; trial < 10; trial++ {
		q := env.randomQuery(rng, 40, 10, 0.5, Sum)
		want, err := Brute(env.g, q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := APXSum(env.g, gp, q, 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) == 0 {
			t.Fatal("no answers")
		}
		if want.Dist > 0 && got[0].Dist/want.Dist > 3+1e-9 {
			t.Fatalf("rank-1 ratio %v exceeds 3", got[0].Dist/want.Dist)
		}
		// Answers sorted ascending and internally consistent.
		for i := 1; i < len(got); i++ {
			if got[i].Dist < got[i-1].Dist {
				t.Fatal("answers not sorted")
			}
		}
		checkAnswer(t, env.g, q, got[0], "APXSum top-3 [0]")
	}
}

func TestKAPXSumPoolBeatsSingleNN(t *testing.T) {
	// With duplicated nearest neighbors, the 2-NN pool keeps enough
	// distinct candidates for k > 1.
	env := newTestEnv(t, 400, 72)
	rng := rand.New(rand.NewSource(73))
	q := env.randomQuery(rng, 30, 8, 0.5, Sum)
	got, err := APXSum(env.g, env.engines[0], q, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) < 2 {
		t.Fatalf("pool yielded %d answers, want >= 2", len(got))
	}
	if got[0].P == got[1].P {
		t.Fatal("duplicate data points in top-k")
	}
}

func TestKAPXSumValidation(t *testing.T) {
	env := newTestEnv(t, 200, 74)
	rng := rand.New(rand.NewSource(75))
	q := env.randomQuery(rng, 10, 5, 0.5, Max)
	if _, err := APXSum(env.g, env.engines[0], q, 2); err == nil {
		t.Fatal("APXSum at k = 2 accepted max aggregate")
	}
	q.Agg = Sum
	if _, err := APXSum(env.g, env.engines[0], q, 0); err == nil {
		t.Fatal("APXSum accepted k=0")
	}
}

func TestKAPXSumQualityVsExact(t *testing.T) {
	env := newTestEnv(t, 500, 76)
	rng := rand.New(rand.NewSource(77))
	gp := env.engines[0]
	worst := 0.0
	for trial := 0; trial < 8; trial++ {
		q := env.randomQuery(rng, 50, 10, 0.5, Sum)
		const kAns = 3
		want, err := KBrute(env.g, q, kAns)
		if err != nil {
			t.Fatal(err)
		}
		got, err := APXSum(env.g, gp, q, kAns)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if i >= len(want) {
				break
			}
			if want[i].Dist > 0 {
				if r := got[i].Dist / want[i].Dist; r > worst {
					worst = r
				}
				if got[i].Dist < want[i].Dist-1e-9 {
					t.Fatalf("rank %d beat the optimum", i)
				}
			}
		}
	}
	if math.IsInf(worst, 1) || worst > 3 {
		t.Fatalf("observed top-k ratio %v implausibly large", worst)
	}
	t.Logf("worst observed rank-wise ratio: %.4f", worst)
}
