package main

import (
	"math/rand"
	"testing"

	"fannr"
)

// bruteCheck is the benchmark's own exactness reference; it must agree
// with the repository's, fannr.KBrute.
func TestBruteCheckAgreesWithKBrute(t *testing.T) {
	g, err := fannr.Generate(fannr.GenConfig{Nodes: 600, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	draw := func(n int) []int32 {
		seen := map[int32]bool{}
		var out []int32
		for len(out) < n {
			if v := int32(rng.Intn(g.NumNodes())); !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
		return out
	}
	for i, c := range []struct {
		np, nq, k int
		phi       float64
		agg       string
	}{{30, 8, 1, 0.5, "max"}, {8, 30, 3, 0.3, "sum"}, {20, 20, 5, 1, "max"}, {12, 16, 2, 0.7, "sum"}} {
		r := &request{fannRequest: fannRequest{P: draw(c.np), Q: draw(c.nq), Phi: c.phi, Agg: c.agg, Algo: "gd", K: c.k}}
		ref, err := fannr.KBrute(g, fannr.Query{P: r.P, Q: r.Q, Phi: r.Phi, Agg: aggOf(r.Agg)}, r.K)
		if err != nil {
			t.Fatal(err)
		}
		var answers []fannAnswer
		for _, a := range ref {
			answers = append(answers, fannAnswer{P: a.P, Dist: a.Dist, Subset: a.Subset})
		}
		if err := bruteCheck(g, r, answers); err != nil {
			t.Errorf("case %d: KBrute's own answer rejected: %v", i, err)
		}
		answers[len(answers)-1].Dist *= 1.001
		if err := bruteCheck(g, r, answers); err == nil {
			t.Errorf("case %d: a distance 0.1 %% off was accepted", i)
		}
		answers[len(answers)-1] = fannAnswer{P: r.P[0], Dist: ref[len(ref)-1].Dist}
		if ref[len(ref)-1].P != r.P[0] {
			if err := bruteCheck(g, r, answers); err == nil {
				t.Errorf("case %d: the right distance on the wrong data point was accepted", i)
			}
		}
	}
}
