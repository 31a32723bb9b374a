package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestTopKOneIsSingleAnswer pins the collapse: each K* entry point at
// kAns = 1 runs the same body as its single-answer twin, so the one
// answer agrees bitwise in P, Dist and Subset.
func TestTopKOneIsSingleAnswer(t *testing.T) {
	env := newTestEnv(t, 500, 80)
	g := env.g
	pairs := []struct {
		name   string
		agg    Aggregate
		single func(GPhi, Query) (Answer, error)
		topK   func(GPhi, Query) ([]Answer, error)
	}{
		{"GD", Sum,
			func(gp GPhi, q Query) (Answer, error) { return GD(g, gp, q) },
			func(gp GPhi, q Query) ([]Answer, error) { return KGD(g, gp, q, 1) }},
		{"RList", Sum,
			func(gp GPhi, q Query) (Answer, error) { return RList(g, gp, q) },
			func(gp GPhi, q Query) ([]Answer, error) { return KRList(g, gp, q, 1) }},
		{"IERKNN", Sum,
			func(gp GPhi, q Query) (Answer, error) { return IERKNN(g, BuildPTree(g, q.P), gp, q) },
			func(gp GPhi, q Query) ([]Answer, error) {
				return KIERKNN(g, BuildPTree(g, q.P), gp, q, 1)
			}},
		{"ExactMax", Max,
			func(gp GPhi, q Query) (Answer, error) { return ExactMax(g, gp, q) },
			func(gp GPhi, q Query) ([]Answer, error) { return KExactMax(g, gp, q, 1) }},
		{"APXSum", Sum,
			func(gp GPhi, q Query) (Answer, error) { return APXSum(g, gp, q) },
			func(gp GPhi, q Query) ([]Answer, error) { return KAPXSum(g, gp, q, 1) }},
	}
	rng := rand.New(rand.NewSource(81))
	for _, pair := range pairs {
		for _, gp := range env.engines {
			for trial := 0; trial < 4; trial++ {
				q := env.randomQuery(rng, 40, 12, 0.5, pair.agg)
				want, err := pair.single(gp, q)
				if err != nil {
					t.Fatal(err)
				}
				got, err := pair.topK(gp, q)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != 1 || got[0].P != want.P ||
					math.Float64bits(got[0].Dist) != math.Float64bits(want.Dist) ||
					!slices.Equal(got[0].Subset, want.Subset) {
					t.Fatalf("%s over %s: K*(q, 1) = %+v, single answer %+v", pair.name, gp.Name(), got, want)
				}
			}
		}
	}
}
