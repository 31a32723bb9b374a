package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestTopKOneIsSingleAnswer pins the two forms of the incumbent queue
// against each other: at k = 1 topK is a scalar, at k > 1 a heap, and
// each exact entry point's one answer at k = 1 must head its top-3 — the
// same distance to the bit, and the same point and subset unless another
// point ties it. Every run, APX-sum's too, is repeated on a Scratch
// shared by all of them and must return exactly what it returned without
// one, although the list and its subsets then live in memory the
// previous run filled.
func TestTopKOneIsSingleAnswer(t *testing.T) {
	env := newTestEnv(t, 500, 80)
	g := env.g
	algos := []struct {
		name string
		agg  Aggregate
		run  func(GPhi, Query, int) ([]Answer, error)
	}{
		{"GD", Sum, func(gp GPhi, q Query, k int) ([]Answer, error) { return GD(g, gp, q, k) }},
		{"RList", Sum, func(gp GPhi, q Query, k int) ([]Answer, error) { return RList(g, gp, q, k) }},
		{"IERKNN", Sum, func(gp GPhi, q Query, k int) ([]Answer, error) {
			return IERKNN(g, BuildPTree(g, q.P), gp, q, k)
		}},
		{"ExactMax", Max, func(gp GPhi, q Query, k int) ([]Answer, error) { return ExactMax(g, gp, q, k) }},
		{"APXSum", Sum, func(gp GPhi, q Query, k int) ([]Answer, error) { return APXSum(g, gp, q, k) }},
	}
	same := func(x, y Answer) bool {
		return x.P == y.P && math.Float64bits(x.Dist) == math.Float64bits(y.Dist) && slices.Equal(x.Subset, y.Subset)
	}
	rng := rand.New(rand.NewSource(81))
	for _, gp := range env.engines {
		scratch := NewScratch()
		for trial := 0; trial < 4; trial++ {
			for _, a := range algos {
				q := env.randomQuery(rng, 40, 12, 0.5, a.agg)
				label := fmt.Sprintf("%s over %s, trial %d", a.name, gp.Name(), trial)
				var lists [2][]Answer // k = 3, k = 1
				for i, k := range []int{3, 1} {
					fresh, err := a.run(gp, q, k)
					if err != nil {
						t.Fatalf("%s at k = %d: %v", label, k, err)
					}
					warm := q
					warm.Scratch = scratch
					got, err := a.run(gp, warm, k)
					if err != nil {
						t.Fatalf("%s at k = %d with a Scratch: %v", label, k, err)
					}
					if !slices.EqualFunc(got, fresh, same) {
						t.Fatalf("%s at k = %d: %+v with a Scratch, %+v without", label, k, got, fresh)
					}
					lists[i] = fresh
				}
				top, one := lists[0], lists[1]
				if a.name == "APXSum" {
					continue // its candidate pool grows past k = 1
				}
				if len(one) != 1 || math.Float64bits(one[0].Dist) != math.Float64bits(top[0].Dist) ||
					one[0].P == top[0].P && !same(one[0], top[0]) {
					t.Fatalf("%s: k = 1 gives %+v, the head of the top-3 is %+v", label, one, top[0])
				}
			}
		}
	}
}
