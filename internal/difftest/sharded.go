package difftest

import (
	"context"
	"errors"
	"fmt"

	"fannr/internal/core"
	"fannr/internal/graph"
	"fannr/internal/resil"
	"fannr/internal/shard"
)

// ShardedEnv wraps an Env with in-process scatter-gather deployments at
// several shard counts: one partition plan, one host per shard (running
// the full engine suite over shared read-only indexes) and one
// coordinator per count, all wired through the frame codec. MaxFanout is
// 1 so shard calls run strictly bound-ordered and serial — maximal
// pruning pressure and no concurrent sharing of per-querier scratch.
type ShardedEnv struct {
	env    *Env
	counts []int
	plans  map[int]*shard.Plan
	trs    map[int][]shard.Transport
	coords map[int]*shard.Coordinator
}

// NewShardedEnv builds the deployments. counts defaults to {1, 2, 4}.
func NewShardedEnv(env *Env, counts ...int) (*ShardedEnv, error) {
	if env.Tree == nil || env.factories == nil {
		return nil, fmt.Errorf("difftest: env was not assembled with shard support")
	}
	if len(counts) == 0 {
		counts = []int{1, 2, 4}
	}
	se := &ShardedEnv{
		env: env, counts: counts,
		plans:  map[int]*shard.Plan{},
		trs:    map[int][]shard.Transport{},
		coords: map[int]*shard.Coordinator{},
	}
	for _, S := range counts {
		plan, err := shard.NewPlan(env.G, env.Tree, shard.PlanOptions{Shards: S})
		if err != nil {
			return nil, err
		}
		transports := make([]shard.Transport, S)
		for s := 0; s < S; s++ {
			h := shard.NewHost(s, env.G, shard.HostOptions{})
			for i, name := range suite {
				if err := h.AddEngine(name, env.factories[i]); err != nil {
					return nil, err
				}
			}
			transports[s] = shard.InProc{Host: h}
		}
		coord, err := shard.NewCoordinator(plan, transports, shard.CoordinatorOptions{MaxFanout: 1})
		if err != nil {
			return nil, err
		}
		se.plans[S], se.trs[S], se.coords[S] = plan, transports, coord
	}
	return se, nil
}

// Counts returns the shard counts the env deploys.
func (se *ShardedEnv) Counts() []int { return se.counts }

// RunCaseSharded runs one case through the coordinator at every shard
// count × every applicable algorithm and compares the merged top-k lists
// against core.KBrute: the scatter/bound/prune/merge pipeline must be
// observationally identical to a single process for the exact
// algorithms, and stay inside the Theorem 2 ratio for APX-sum. Engines
// rotate per case seed, as in runTopK: across the full matrix every
// engine is exercised at every shard count.
func (se *ShardedEnv) RunCaseSharded(c Case) error {
	q := c.query()
	kb, kbErr := core.KBrute(se.env.G, q, c.KAns)
	noResult := errors.Is(kbErr, core.ErrNoResult)
	if kbErr != nil && !noResult {
		return fmt.Errorf("%v: KBrute: %w", c, kbErr)
	}
	idx := int(c.Seed) % len(suite)
	if idx < 0 {
		idx += len(suite)
	}
	engine := suite[idx]

	algos := []string{"gd", "rlist"}
	if se.env.G.HasCoords() {
		algos = append(algos, "ier")
	}
	if q.Agg == core.Max {
		algos = append(algos, "exactmax")
	} else {
		algos = append(algos, "apxsum")
	}

	for _, S := range se.counts {
		coord := se.coords[S]
		for _, algo := range algos {
			label := fmt.Sprintf("sharded S=%d %s/%s", S, algo, engine)
			res, err := coord.Execute(context.Background(), &shard.Request{
				P: c.P, Q: c.Q, Phi: c.Phi, Agg: q.Agg.String(),
				Algo: algo, Engine: engine, K: c.KAns,
			}, nil)
			if noResult {
				var se2 *shard.Error
				if err == nil || !errors.As(err, &se2) || se2.Code != "not_found" {
					return fmt.Errorf("%v: %s: err = %v, brute says ErrNoResult", c, label, err)
				}
				continue
			}
			if err != nil {
				return fmt.Errorf("%v: %s: %w", c, label, err)
			}
			if res.Degraded {
				return fmt.Errorf("%v: %s: healthy cluster produced a degraded result", c, label)
			}
			if res.Contacted+res.Pruned > S {
				return fmt.Errorf("%v: %s: contacted %d + pruned %d exceeds S", c, label, res.Contacted, res.Pruned)
			}
			if algo == "apxsum" {
				// Merged APX-sum keeps the rank-1 ratio bound: every shard's
				// answers carry true g_φ values of real candidates (≥ d*),
				// and the optimum's shard either answered (rank-1 ≤ 3·d*) or
				// was pruned under a bound ≤ its own optimum.
				if len(res.Answers) == 0 {
					return fmt.Errorf("%v: %s: empty answers, brute d* = %v", c, label, kb[0].Dist)
				}
				bound := core.APXSumRatioBound(q)
				if res.Answers[0].Dist < kb[0].Dist-tol || res.Answers[0].Dist > bound*kb[0].Dist+tol {
					return fmt.Errorf("%v: %s: rank-1 %v outside [d*, %v·d*], d* = %v",
						c, label, res.Answers[0].Dist, bound, kb[0].Dist)
				}
				for i := 1; i < len(res.Answers); i++ {
					if res.Answers[i].Dist < res.Answers[i-1].Dist-tol {
						return fmt.Errorf("%v: %s: answers not sorted at rank %d", c, label, i)
					}
				}
				continue
			}
			if len(res.Answers) != len(kb) {
				return fmt.Errorf("%v: %s: %d answers, brute %d", c, label, len(res.Answers), len(kb))
			}
			for i := range kb {
				if !closeTo(res.Answers[i].Dist, kb[i].Dist) {
					return fmt.Errorf("%v: %s: rank %d dist %v, brute %v",
						c, label, i, res.Answers[i].Dist, kb[i].Dist)
				}
			}
		}
	}
	return nil
}

// RunCaseShardedChaos kills the shard owning the case's first P-object
// (breaker force-open on a fresh coordinator over the same hosts) and
// asserts the failure contract: the result is stamped degraded and its
// answers exactly match brute force over the surviving shards' P-objects
// — a bounded partial answer, never a silently wrong one. When the dead
// shard owned every candidate the coordinator must relay the overload
// instead of fabricating an empty success.
func (se *ShardedEnv) RunCaseShardedChaos(c Case, S int) error {
	plan, ok := se.plans[S]
	if !ok {
		return fmt.Errorf("difftest: no deployment at S=%d", S)
	}
	if S < 2 {
		return fmt.Errorf("difftest: chaos needs S ≥ 2")
	}
	coord, err := shard.NewCoordinator(plan, se.trs[S], shard.CoordinatorOptions{
		MaxFanout:        1,
		Retry:            &resil.RetryPolicy{Attempts: 1},
		BreakerThreshold: 1,
	})
	if err != nil {
		return err
	}
	dead := plan.ShardOf(c.P[0])
	coord.TripShard(dead)

	var survivors []graph.NodeID
	for _, p := range c.P {
		if plan.ShardOf(p) != dead {
			survivors = append(survivors, p)
		}
	}
	q := c.query()
	req := &shard.Request{
		P: c.P, Q: c.Q, Phi: c.Phi, Agg: q.Agg.String(), Engine: "INE", K: c.KAns,
	}
	res, err := coord.Execute(context.Background(), req, nil)
	label := fmt.Sprintf("chaos S=%d dead=%d", S, dead)

	if len(survivors) == 0 {
		// Every candidate lived on the dead shard: relay the shard fault.
		var se2 *shard.Error
		if err == nil || !errors.As(err, &se2) || se2.Status != 503 {
			return fmt.Errorf("%v: %s: err = %v, want relayed 503", c, label, err)
		}
		return nil
	}

	sq := q
	sq.P = survivors
	kb, kbErr := core.KBrute(se.env.G, sq, c.KAns)
	if errors.Is(kbErr, core.ErrNoResult) {
		var se2 *shard.Error
		if err == nil || !errors.As(err, &se2) || se2.Code != "not_found" {
			return fmt.Errorf("%v: %s: err = %v, want not_found over survivors", c, label, err)
		}
		return nil
	}
	if kbErr != nil {
		return fmt.Errorf("%v: %s: KBrute over survivors: %w", c, label, kbErr)
	}
	if err != nil {
		return fmt.Errorf("%v: %s: %w", c, label, err)
	}
	if res.Degraded {
		if len(res.DownShards) != 1 || res.DownShards[0] != dead {
			return fmt.Errorf("%v: %s: DownShards = %v", c, label, res.DownShards)
		}
	} else if res.Pruned == 0 {
		// The only legitimate non-degraded outcome is the dead shard being
		// pruned before contact — its bound proved no candidate there could
		// enter the top-k, so the answer is exact over the FULL P and the
		// survivor comparison below still holds (pruned candidates all sit
		// at or beyond the k-th distance).
		return fmt.Errorf("%v: %s: dead shard neither down nor pruned", c, label)
	}
	if len(res.Answers) != len(kb) {
		return fmt.Errorf("%v: %s: %d answers, survivor-brute %d", c, label, len(res.Answers), len(kb))
	}
	for i := range kb {
		if !closeTo(res.Answers[i].Dist, kb[i].Dist) {
			return fmt.Errorf("%v: %s: rank %d dist %v, survivor-brute %v",
				c, label, i, res.Answers[i].Dist, kb[i].Dist)
		}
	}
	return nil
}
