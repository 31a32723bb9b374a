package difftest

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"fannr/internal/core"
	"fannr/internal/graph"
	"fannr/internal/shard"
)

// sameAnswers reports whether two answer lists agree to the bit.
func sameAnswers(a, b []core.Answer) bool {
	return slices.EqualFunc(a, b, func(x, y core.Answer) bool {
		return x.P == y.P && math.Float64bits(x.Dist) == math.Float64bits(y.Dist) && slices.Equal(x.Subset, y.Subset)
	})
}

// RunCaseRegistered is the differential gate for the set registry on the
// single-process path. Per algorithm, on a registry of its own, the
// case's query is dispatched without a registry and then three times
// with one — Validate first, as the serving tiers do, so the sights can
// be pinned: first sight, fill, hit — and every answer list must equal
// the registry-less one bit for bit (ids, distances, subsets) and brute
// force to tolerance. Then P is sent once permuted and once with
// duplicates appended: other keys, the same fingerprint, the same
// distances (the same answers outright for the duplicated form, whose
// first-occurrence order is the original's).
func (env *Env) RunCaseRegistered(c Case) error {
	kb, kbErr := core.KBrute(env.G, c.query(), c.KAns)
	noResult := errors.Is(kbErr, core.ErrNoResult)
	if kbErr != nil && !noResult {
		return fmt.Errorf("%v: KBrute: %w", c, kbErr)
	}
	gp := env.Engines[rotate(c.Seed, len(env.Engines))]
	rng := rand.New(rand.NewSource(c.Seed))
	permuted := slices.Clone(c.P)
	rng.Shuffle(len(permuted), func(i, j int) { permuted[i], permuted[j] = permuted[j], permuted[i] })
	doubled := append(slices.Clone(c.P), c.P[len(c.P)-1], c.P[0])

	for _, algo := range caseAlgos(env.G, c.Agg) {
		label := fmt.Sprintf("sets/%s/%s", algo, gp.Name())
		bare, bareErr := core.Dispatch(env.G, algo, gp, c.query(), c.KAns)
		if noResult != errors.Is(bareErr, core.ErrNoResult) || (bareErr != nil && !noResult) {
			return fmt.Errorf("%v: %s: bare err %v, brute err %v", c, label, bareErr, kbErr)
		}
		if !noResult && algo != "apxsum" {
			if len(bare) != len(kb) {
				return fmt.Errorf("%v: %s: %d answers, brute %d", c, label, len(bare), len(kb))
			}
			for i := range kb {
				if !closeTo(bare[i].Dist, kb[i].Dist) {
					return fmt.Errorf("%v: %s: rank %d dist %v, brute %v", c, label, i, bare[i].Dist, kb[i].Dist)
				}
			}
		}
		sets := core.NewSetRegistry()
		// send validates P (as given) and the case's Q through the
		// registry, then dispatches the validated query.
		send := func(P []graph.NodeID) (core.Query, []core.Answer, error) {
			q := c.query()
			q.P, q.Sets = P, sets
			if err := q.Validate(env.G); err != nil {
				return q, nil, err
			}
			got, err := core.Dispatch(env.G, algo, gp, q, c.KAns)
			return q, got, err
		}
		var fp core.Fingerprint
		for sight, want := range []core.SetSight{core.SetFirstSight, core.SetFill, core.SetHit} {
			q, got, err := send(c.P)
			if q.PSight() != want {
				return fmt.Errorf("%v: %s sight %d: P read %q, want %q", c, label, sight+1, q.PSight(), want)
			}
			if noResult != errors.Is(err, core.ErrNoResult) || (err != nil && !noResult) || !sameAnswers(got, bare) {
				return fmt.Errorf("%v: %s sight %d: %+v (err %v) with a registry, %+v (err %v) without", c, label, sight+1, got, err, bare, bareErr)
			}
			fp, _ = q.Fingerprints()
		}
		for form, P := range map[string][]graph.NodeID{"permuted": permuted, "doubled": doubled} {
			q, got, err := send(P)
			if q.PSight() == core.SetHit && !slices.Equal(P, c.P) {
				return fmt.Errorf("%v: %s: the %s P hit the original's entry", c, label, form)
			}
			if got, _ := q.Fingerprints(); got != fp {
				return fmt.Errorf("%v: %s: the %s P has another fingerprint", c, label, form)
			}
			if noResult != errors.Is(err, core.ErrNoResult) || (err != nil && !noResult) || len(got) != len(bare) {
				return fmt.Errorf("%v: %s: the %s P: %+v (err %v), original %+v", c, label, form, got, err, bare)
			}
			if form == "doubled" && !sameAnswers(got, bare) {
				return fmt.Errorf("%v: %s: the doubled P: %+v, original %+v", c, label, got, bare)
			}
			// APX-sum's candidate step may settle on other candidates when
			// P is walked in another order; its answers are compared by the
			// bound on the bare run above, not rank by rank.
			for i := range got {
				if algo != "apxsum" && math.Float64bits(got[i].Dist) != math.Float64bits(bare[i].Dist) {
					return fmt.Errorf("%v: %s: the %s P: rank %d dist %v, original %v", c, label, form, i, got[i].Dist, bare[i].Dist)
				}
			}
		}
	}
	return nil
}

// RunCaseShardedRegistered is the same gate through the coordinator at
// every shard count: one algorithm per case (rotating with the seed),
// executed three times — neither the coordinator nor its hosts cache
// results in this deployment, so each runs in full — with the
// coordinator's registry counters pinned after each (two lists skipped,
// two stored, two served) and the second and third answers compared
// with the first, which took the registry-less path, bit for bit, and
// with brute force.
func (se *ShardedEnv) RunCaseShardedRegistered(c Case) error {
	q := c.query()
	kb, kbErr := core.KBrute(se.env.G, q, c.KAns)
	noResult := errors.Is(kbErr, core.ErrNoResult)
	if kbErr != nil && !noResult {
		return fmt.Errorf("%v: KBrute: %w", c, kbErr)
	}
	engine := suite[rotate(c.Seed, len(suite))]
	algos := caseAlgos(se.env.G, q.Agg)
	algo := algos[rotate(c.Seed, len(algos))]
	sameList := slices.Equal(c.P, c.Q) // one key for both lists: the counts below do not apply

	for _, S := range se.counts {
		coord := se.coords[S]
		label := fmt.Sprintf("sharded sets S=%d %s/%s", S, algo, engine)
		var first []core.Answer
		prev := coord.SetMetrics()
		for sight := 1; sight <= 3; sight++ {
			res, err := coord.Execute(context.Background(), &shard.Request{
				P: c.P, Q: c.Q, Phi: c.Phi, Agg: q.Agg.String(), Algo: algo, Engine: engine, K: c.KAns,
			}, nil)
			m := coord.SetMetrics()
			got := [3]int64{m.Skips - prev.Skips, m.Fills - prev.Fills, m.Hits - prev.Hits}
			prev = m
			if want := [3][3]int64{{2, 0, 0}, {0, 2, 0}, {0, 0, 2}}[sight-1]; got != want && !sameList {
				return fmt.Errorf("%v: %s sight %d: skips/fills/hits moved by %v, want %v", c, label, sight, got, want)
			}
			if noResult {
				var se2 *shard.Error
				if err == nil || !errors.As(err, &se2) || se2.Code != "not_found" {
					return fmt.Errorf("%v: %s sight %d: err = %v, brute says ErrNoResult", c, label, sight, err)
				}
				continue
			}
			if err != nil {
				return fmt.Errorf("%v: %s sight %d: %w", c, label, sight, err)
			}
			if sight == 1 {
				first = res.Answers
				if algo != "apxsum" {
					if len(first) != len(kb) {
						return fmt.Errorf("%v: %s: %d answers, brute %d", c, label, len(first), len(kb))
					}
					for i := range kb {
						if !closeTo(first[i].Dist, kb[i].Dist) {
							return fmt.Errorf("%v: %s: rank %d dist %v, brute %v", c, label, i, first[i].Dist, kb[i].Dist)
						}
					}
				}
				continue
			}
			same := slices.EqualFunc(res.Answers, first, func(x, y core.Answer) bool {
				return x.P == y.P && math.Float64bits(x.Dist) == math.Float64bits(y.Dist) && slices.Equal(x.Subset, y.Subset)
			})
			if !same {
				return fmt.Errorf("%v: %s sight %d: %+v, first sight %+v", c, label, sight, res.Answers, first)
			}
		}
	}
	return nil
}
