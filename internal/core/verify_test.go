package core

import (
	"math/rand"
	"testing"
)

func TestVerifyAcceptsRealAnswers(t *testing.T) {
	env := newTestEnv(t, 500, 95)
	rng := rand.New(rand.NewSource(96))
	for trial := 0; trial < 4; trial++ {
		agg := Aggregate(trial % 2)
		q := env.randomQuery(rng, 20, 8, 0.5, agg)
		for _, gp := range env.engines[:3] {
			ans, err := first(GD(env.g, gp, q, 1))
			if err != nil {
				t.Fatal(err)
			}
			if err := Verify(env.g, q, ans); err != nil {
				t.Fatalf("Verify rejected a real %s answer: %v", gp.Name(), err)
			}
		}
	}
}

func TestVerifyRejectsCorruptAnswers(t *testing.T) {
	env := newTestEnv(t, 400, 97)
	rng := rand.New(rand.NewSource(98))
	q := env.randomQuery(rng, 20, 8, 0.5, Sum)
	ans, err := first(GD(env.g, env.engines[0], q, 1))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func(a Answer) Answer
	}{
		{"point outside P", func(a Answer) Answer {
			a.P = q.Q[0]
			for _, p := range q.P {
				if p == a.P {
					a.P = q.Q[1]
				}
			}
			return a
		}},
		{"wrong dist", func(a Answer) Answer { a.Dist *= 2; return a }},
		{"short subset", func(a Answer) Answer { a.Subset = a.Subset[:1]; return a }},
		{"duplicated subset", func(a Answer) Answer {
			s := append([]int32(nil), a.Subset...)
			s[1] = s[0]
			a.Subset = s
			return a
		}},
		{"subset not in Q", func(a Answer) Answer {
			s := append([]int32(nil), a.Subset...)
			s[0] = q.P[0]
			for _, v := range q.Q {
				if v == s[0] {
					s[0] = q.P[1]
				}
			}
			a.Subset = s
			return a
		}},
	}
	for _, c := range cases {
		if err := Verify(env.g, q, c.mutate(ans)); err == nil {
			t.Fatalf("%s accepted", c.name)
		}
	}
	if err := Verify(env.g, q, ans); err != nil {
		t.Fatalf("unmutated answer rejected: %v", err)
	}
}

func TestVerifyRejectsSuboptimalSubset(t *testing.T) {
	// A structurally valid subset that is not the k nearest.
	env := newTestEnv(t, 300, 99)
	rng := rand.New(rand.NewSource(100))
	q := env.randomQuery(rng, 10, 6, 0.5, Sum) // k = 3
	ans, err := first(GD(env.g, env.engines[0], q, 1))
	if err != nil {
		t.Fatal(err)
	}
	// Swap one subset member for the farthest query point and fix Dist to
	// the new aggregate so only the optimality check can catch it.
	gp := env.engines[0]
	gp.Reset(q.Q)
	far := q.Q[0]
	inSubset := map[int32]bool{}
	for _, v := range ans.Subset {
		inSubset[v] = true
	}
	worst := -1.0
	for _, v := range q.Q {
		if inSubset[v] {
			continue
		}
		if d, ok := gp.Dist(v, 1, Max); ok {
			_ = d
		}
		far = v
		_ = worst
	}
	bad := ans
	bad.Subset = append(append([]int32(nil), ans.Subset[:len(ans.Subset)-1]...), far)
	// Recompute the (inflated) aggregate honestly.
	agg := 0.0
	for _, v := range bad.Subset {
		d, _ := distTo(env.g, bad.P, v)
		agg += d
	}
	bad.Dist = agg
	if agg > ans.Dist { // only meaningful when actually suboptimal
		if err := Verify(env.g, q, bad); err == nil {
			t.Fatal("suboptimal subset accepted")
		}
	}
}
