package core_test

import (
	"slices"
	"testing"

	"fannr/internal/core"
	"fannr/internal/difftest"
	"fannr/internal/graph"
)

// expanderCandidates is APX-sum's candidate step as it was first written
// — one map-backed expander per query point (difftest.MapExpander, what
// sp.Expander was then) — kept as the reference the shared-Dijkstra
// version must reproduce: same candidates in the same order, same number
// of settled nodes.
func expanderCandidates(g *graph.Graph, q core.Query, per int) (candidates []graph.NodeID, settled int64) {
	pSet := graph.NewNodeSet(g.NumNodes())
	pSet.AddAll(q.P)
	seen := graph.NewNodeSet(g.NumNodes())
	for _, src := range q.Q {
		ex := difftest.NewMapExpander(g, src)
		for picked := 0; picked < per; {
			v, _, ok := ex.Step()
			if !ok {
				break
			}
			settled++
			if !pSet.Contains(v) {
				continue
			}
			picked++
			if !seen.Contains(v) {
				seen.Add(v, 0)
				candidates = append(candidates, v)
			}
		}
	}
	return candidates, settled
}

// TestAPXSumCandidatesMatchExpander runs the candidate step over the
// differential corpus (the four graphs and 320 seeded cases of
// TestDifferentialVsBrute), with one Scratch carried across all four
// graphs and without one, against the Expander reference; and APX-sum
// itself over PHL, which must answer the same either way and within its
// proven ratio of the optimum.
func TestAPXSumCandidatesMatchExpander(t *testing.T) {
	scratch := core.NewScratch()
	for _, spec := range []struct {
		nodes int
		seed  int64
	}{{180, 11}, {260, 12}, {340, 13}, {420, 14}} {
		env, err := difftest.NewEnv(spec.nodes, spec.seed)
		if err != nil {
			t.Fatal(err)
		}
		phl := env.Engines[slices.IndexFunc(env.Engines, func(gp core.GPhi) bool { return gp.Name() == "PHL" })]
		for i := 0; i < 80; i++ {
			c := difftest.GenCase(spec.seed*10_000+int64(i), env.G)
			q := core.Query{P: c.P, Q: c.Q, Phi: c.Phi, Agg: core.Sum}
			if err := q.Validate(env.G); err != nil {
				t.Fatal(err)
			}
			for per := 1; per <= 2; per++ {
				want, wantSettled := expanderCandidates(env.G, q, per)
				for _, s := range []*core.Scratch{nil, scratch} {
					var stats core.Stats
					qs := q
					qs.Scratch, qs.Stats = s, &stats
					got, err := core.APXCandidates(env.G, &qs, per)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(got, want) || stats.Settled != wantSettled {
						t.Fatalf("%v per=%d scratch=%v: candidates %v (settled %d), Expander reference %v (settled %d)",
							c, per, s != nil, got, stats.Settled, want, wantSettled)
					}
				}
			}
			opt, err := core.Brute(env.G, q)
			if err != nil {
				t.Fatal(err)
			}
			answers, err := core.APXSum(env.G, phl, q, 1)
			if err != nil {
				t.Fatal(err)
			}
			bare := answers[0]
			qs := q
			qs.Scratch = scratch
			answers, err = core.APXSum(env.G, phl, qs, 1)
			if err != nil {
				t.Fatal(err)
			}
			if warm := answers[0]; warm.P != bare.P || warm.Dist != bare.Dist {
				t.Fatalf("%v: APX-sum (%d, %v) with a Scratch, (%d, %v) without", c, warm.P, warm.Dist, bare.P, bare.Dist)
			}
			if bound := core.APXSumRatioBound(q); bare.Dist > bound*opt.Dist*(1+1e-9) {
				t.Fatalf("%v: APX-sum %v exceeds %v × optimum %v", c, bare.Dist, bound, opt.Dist)
			}
		}
	}
}
