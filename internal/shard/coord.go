package shard

import (
	"cmp"
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"fannr/internal/core"
	"fannr/internal/graph"
	"fannr/internal/obs"
	"fannr/internal/qcache"
	"fannr/internal/resil"
	"fannr/internal/wire"
)

// CoordinatorOptions configures the scatter-gather front end.
type CoordinatorOptions struct {
	// BreakerThreshold opens a shard's circuit breaker after that many
	// consecutive failed calls (0 disables breaking); BreakerCooldown is
	// how long it stays open before a half-open probe (0 =
	// resil.DefaultCooldown).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// Retry is the per-call retry policy (default: 2 attempts, 10ms
	// base, 100ms cap, 0.2 jitter). Client-fault responses (4xx) are
	// never retried.
	Retry *resil.RetryPolicy
	// MaxFanout bounds concurrent shard calls per wave (default 4).
	// Scattering in bound-ordered waves is what lets early answers
	// tighten the k-th distance and prune later shards.
	MaxFanout int
	// CacheEntries sizes the coordinator's exact-result cache (0
	// disables). Keys are stamped with the plan epoch and the healthy
	// shard set, so resharding or a shard dropping out invalidates
	// everything cached under the old topology.
	CacheEntries int
	// Registry receives the fannr_shard_* metrics (nil = no metrics).
	Registry *obs.Registry
}

// Result is one coordinated query's outcome.
type Result struct {
	// Answers are read-only: on a cache hit they are the cache's own.
	Answers []core.Answer
	Engine  string
	// Degraded is set when at least one shard holding candidates could
	// not be reached: the answers are exact over the reachable shards'
	// objects — a correct upper bound on the true optimum, stamped so
	// the caller knows candidates may be missing, never silently wrong.
	Degraded   bool
	DownShards []int
	Contacted  int
	Pruned     int
	CacheHit   bool
}

// Coordinator fans FANN queries over the shard set: split P by
// ownership, bound each shard, contact shards best-bound-first, merge
// per-shard top-k lists, and prune every shard whose bound cannot beat
// the running k-th result. Per-shard breakers and retries come from
// internal/resil; a shard that stays down degrades the answer instead
// of failing the query.
type Coordinator struct {
	plan       *Plan
	transports []Transport
	targets    []string // transports[s].Target(), read once at construction
	breakers   []*resil.Breaker
	retry      resil.RetryPolicy
	opts       CoordinatorOptions
	cache      *qcache.Cache
	// tier is the coordinator's configuration of the normalise step: the
	// plan's graph and registry, no engine check of its own (the hosts
	// answer an unknown engine, and their 400 is relayed).
	tier wire.Tier

	mQueries   *obs.Counter
	mContacted *obs.Counter
	mPruned    *obs.Counter
	mDegraded  *obs.Counter
	mCacheHit  *obs.Counter
	mCacheMiss *obs.Counter
	mFanout    *obs.Histogram
	mShardReq  []*obs.Counter
	mShardErr  []*obs.Counter
}

// NewCoordinator wires a coordinator over one transport per shard.
func NewCoordinator(plan *Plan, transports []Transport, opts CoordinatorOptions) (*Coordinator, error) {
	if len(transports) != plan.Shards() {
		return nil, fmt.Errorf("shard: %d transports for %d shards", len(transports), plan.Shards())
	}
	if opts.BreakerCooldown <= 0 {
		opts.BreakerCooldown = resil.DefaultCooldown
	}
	if opts.MaxFanout < 1 {
		opts.MaxFanout = 4
	}
	c := &Coordinator{plan: plan, transports: transports, opts: opts}
	c.tier = wire.Tier{Graph: plan.g, Sets: plan.sets, DefaultEngine: wire.DefaultEngine}
	if opts.Retry != nil {
		c.retry = *opts.Retry
	} else {
		c.retry = resil.RetryPolicy{Attempts: 2, Base: 10 * time.Millisecond, Max: 100 * time.Millisecond, Jitter: 0.2}
	}
	for i := 0; i < plan.Shards(); i++ {
		c.targets = append(c.targets, transports[i].Target())
		c.breakers = append(c.breakers, resil.NewBreaker(opts.BreakerThreshold, opts.BreakerCooldown))
	}
	if opts.CacheEntries > 0 {
		c.cache = qcache.New(qcache.Config{MaxEntries: opts.CacheEntries})
	}
	c.register(opts.Registry)
	return c, nil
}

const (
	mShardQueries   = "fannr_shard_queries_total"
	mShardContacted = "fannr_shard_contacted_total"
	mShardPruned    = "fannr_shard_pruned_total"
	mShardDegraded  = "fannr_shard_degraded_total"
	mShardCacheHit  = "fannr_shard_cache_hits_total"
	mShardCacheMiss = "fannr_shard_cache_misses_total"
	mShardFanout    = "fannr_shard_fanout"
	mShardRequests  = "fannr_shard_requests_total"
	mShardErrors    = "fannr_shard_errors_total"
	mShardBreaker   = "fannr_shard_breaker_state"
	mShardEpoch     = "fannr_shard_plan_epoch"
	mShardCount     = "fannr_shard_count"
	// fannr_shard_sets_{hits,fills,skips,evictions}_total: the
	// coordinator's set registry.
	mShardSetsPrefix = "fannr_shard_sets"
)

// register builds the coordinator's metrics in reg — in a private
// registry nobody scrapes when reg is nil, so the request path counts
// without asking whether anyone reads.
func (c *Coordinator) register(reg *obs.Registry) {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	c.mQueries = reg.Counter(mShardQueries, "Coordinated FANN queries.")
	c.mContacted = reg.Counter(mShardContacted, "Shard RPCs dispatched (pruned shards never appear here).")
	c.mPruned = reg.Counter(mShardPruned, "Shards skipped because their g_phi lower bound could not beat the running k-th result.")
	c.mDegraded = reg.Counter(mShardDegraded, "Queries answered without at least one unreachable shard's candidates.")
	c.mCacheHit = reg.Counter(mShardCacheHit, "Coordinator exact-cache hits.")
	c.mCacheMiss = reg.Counter(mShardCacheMiss, "Coordinator exact-cache misses.")
	buckets := make([]float64, 0, c.plan.Shards()+1)
	for i := 0; i <= c.plan.Shards(); i++ {
		buckets = append(buckets, float64(i))
	}
	c.mFanout = reg.Histogram(mShardFanout, "Shards contacted per query.", buckets)
	reg.GaugeFunc(mShardEpoch, "Partition plan epoch (topology fingerprint, low 52 bits).", func() float64 {
		return float64(c.plan.Epoch & ((1 << 52) - 1))
	})
	reg.GaugeFunc(mShardCount, "Shards in the plan.", func() float64 { return float64(c.plan.Shards()) })
	c.plan.sets.RegisterMetrics(reg, mShardSetsPrefix)
	for i := 0; i < c.plan.Shards(); i++ {
		l := obs.L("shard", fmt.Sprintf("%d", i))
		c.mShardReq = append(c.mShardReq, reg.Counter(mShardRequests, "RPCs sent to this shard.", l))
		c.mShardErr = append(c.mShardErr, reg.Counter(mShardErrors, "Failed RPCs to this shard (after retries).", l))
		br := c.breakers[i]
		reg.GaugeFunc(mShardBreaker, "Per-shard breaker state (0 closed, 1 half-open, 2 open).", func() float64 {
			return float64(br.State())
		}, l)
	}
}

// SetMetrics snapshots the coordinator's set registry (for /meta and
// the differential harness).
func (c *Coordinator) SetMetrics() core.SetMetrics { return c.plan.sets.Metrics() }

// TripShard force-opens a shard's breaker by feeding it failures — the
// chaos hook tests and operators use to take a shard out of rotation. A
// coordinator without breakers (BreakerThreshold 0) keeps every shard.
func (c *Coordinator) TripShard(s int) {
	for i := 0; i < c.opts.BreakerThreshold+1; i++ {
		c.breakers[s].Failure()
	}
}

// cacheEngine is the engine member of the coordinator's result-cache
// key, engine@shards:<epoch>:<healthy mask>. The mask is one bit per
// shard its breaker currently admits, in hex, eight shards to a byte: a
// shard dropping out (or coming back) must not serve results cached
// under a different reachable set. Built by appending into a stack
// buffer — the string is the only allocation, once per request.
func (c *Coordinator) cacheEngine(engine string) string {
	var buf [96]byte
	var mbuf [16]byte
	mask := mbuf[:0]
	for i, br := range c.breakers {
		if i%8 == 0 {
			mask = append(mask, 0)
		}
		if br.State() != resil.Open {
			mask[i/8] |= 1 << (i % 8)
		}
	}
	b := append(buf[:0], engine...)
	b = append(b, "@shards:"...)
	b = strconv.AppendUint(b, c.plan.Epoch, 10)
	b = append(b, ':')
	return string(hex.AppendEncode(b, mask))
}

// shardCall records one shard's fate for EXPLAIN and /debug.
type shardCall struct {
	shard    int
	target   string
	bound    float64
	outcome  string // "ok" | "pruned" | "down" | "skipped"
	answers  int
	micros   int64
	code     string
	cacheHit bool
}

// Execute runs one coordinated query through the request path every
// tier shares after decode — normalise, result key, cache — with
// scatter-gather as its compute stage. tr may be nil; when set, one span
// per candidate-bearing shard lands under the current trace position.
func (c *Coordinator) Execute(ctx context.Context, req *Request, tr *obs.Trace) (*Result, error) {
	c.mQueries.Inc()
	// Validated through the plan's registry: a P layer (or a Q) seen
	// before is neither sorted again here nor, in scatter, cut again.
	var call wire.Call
	if err := c.tier.Normalise(req, &call); err != nil {
		return nil, Classify(err)
	}
	// Topology-stamped exact cache: engine@shards:<epoch>:<healthy mask>.
	var rkey qcache.ResultKey
	if c.cache != nil {
		rkey = qcache.NewResultKey(c.cacheEngine(call.Engine), call.Algo, &call.Query, call.K)
		if answers, hit := c.cache.GetResult(rkey); hit {
			c.mCacheHit.Inc()
			return &Result{Engine: call.Engine, Answers: answers, CacheHit: true}, nil
		}
		c.mCacheMiss.Inc()
	}
	res, err := c.scatter(ctx, &call, tr)
	if res == nil {
		return nil, err
	}
	if err == nil && c.cache != nil && !res.Degraded {
		c.cache.PutResult(rkey, res.Answers)
	}
	return res, err
}

// cand is a candidate-bearing shard and its g_φ lower bound.
type cand struct {
	shard int
	bound float64
}

// gather is one scatter's running state: the merged top-k, the fate of
// every shard considered, and the k-th distance that prunes the rest.
type gather struct {
	k         int
	kth       float64
	merged    []core.Answer
	calls     []shardCall
	down      []int
	downErrs  []*Error
	contacted int
	pruned    int
}

// scatter is the coordinator's compute stage: route P, bound every
// candidate-bearing shard, contact them best-bound-first in waves of at
// most MaxFanout, merge their top-k lists, and prune every shard whose
// bound cannot beat the running k-th answer. A query no shard could
// answer relays a shard's fault; one that reached shards but found
// nothing is not_found, with the result still describing the scatter.
func (c *Coordinator) scatter(ctx context.Context, call *wire.Call, tr *obs.Trace) (*Result, error) {
	perShard := c.plan.SplitP(call.P)
	kAgg := call.Query.K()
	var order []cand
	for s, ps := range perShard {
		if len(ps) > 0 {
			order = append(order, cand{s, c.plan.Bound(s, call.Q, kAgg, call.Agg)})
		}
	}
	slices.SortFunc(order, func(a, b cand) int {
		return cmp.Or(cmp.Compare(a.bound, b.bound), cmp.Compare(a.shard, b.shard))
	})
	g := gather{k: call.K, kth: math.Inf(1)}
	for i := 0; i < len(order); {
		// Bounds ascend, kth only shrinks: once one shard prunes, every
		// remaining shard prunes too.
		if order[i].bound >= g.kth {
			for _, cd := range order[i:] {
				g.pruned++
				g.calls = append(g.calls, shardCall{shard: cd.shard, target: c.targets[cd.shard], bound: cd.bound, outcome: "pruned"})
			}
			break
		}
		wave := order[i:min(len(order), i+c.opts.MaxFanout)]
		i += len(wave)
		c.wave(ctx, call, perShard, wave, &g)
	}

	c.mContacted.Add(int64(g.contacted))
	c.mPruned.Add(int64(g.pruned))
	c.mFanout.Observe(float64(g.contacted))
	c.emitSpans(tr, g.calls)
	sort.Ints(g.down)
	degraded := len(g.down) > 0
	if degraded {
		c.mDegraded.Inc()
	}
	if degraded && len(g.down) == g.contacted {
		// Nothing answered: relay the shard fault, preferring the
		// overload class (it carries Retry-After and means "try again").
		se := g.downErrs[0]
		for _, e := range g.downErrs {
			if e.Status == http.StatusServiceUnavailable {
				se = e
				break
			}
		}
		return nil, se
	}
	res := &Result{
		Engine: call.Engine, Answers: g.merged,
		Degraded: degraded, DownShards: g.down,
		Contacted: g.contacted, Pruned: g.pruned,
	}
	if len(g.merged) == 0 {
		return res, Classify(core.ErrNoResult)
	}
	return res, nil
}

// wave contacts one wave of shards at once — the first call on this
// goroutine, which would otherwise only wait, so a one-shard wave starts
// none — and merges their answers into g.
func (c *Coordinator) wave(ctx context.Context, call *wire.Call, perShard [][]graph.NodeID, wave []cand, g *gather) {
	type reply struct {
		resp *Response
		err  *Error
	}
	replies := make([]reply, len(wave))
	one := func(wi int) {
		s := wave[wi].shard
		replies[wi].resp, replies[wi].err = c.callShard(ctx, s, &Request{
			P: perShard[s], Q: call.Q, Phi: call.Phi, Agg: call.Agg.String(),
			Algo: call.Algo, Engine: call.Engine, K: call.K,
		})
	}
	var wg sync.WaitGroup
	for wi := 1; wi < len(wave); wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			one(wi)
		}(wi)
	}
	one(0)
	wg.Wait()
	for wi, cd := range wave {
		sc := shardCall{shard: cd.shard, target: c.targets[cd.shard], bound: cd.bound}
		g.contacted++
		if se := replies[wi].err; se != nil {
			sc.outcome, sc.code = "down", se.Code
			g.down = append(g.down, cd.shard)
			g.downErrs = append(g.downErrs, se)
		} else {
			resp := replies[wi].resp
			sc.outcome, sc.answers = "ok", len(resp.Answers)
			sc.micros, sc.cacheHit = resp.Micros, resp.CacheHit
			g.merged = append(g.merged, resp.Answers...)
		}
		g.calls = append(g.calls, sc)
	}
	sortAnswers(g.merged)
	if len(g.merged) > g.k {
		g.merged = g.merged[:g.k]
	}
	if len(g.merged) == g.k {
		g.kth = g.merged[g.k-1].Dist
	}
}

// callShard wraps one transport call in the breaker and retry policy.
// 4xx-class faults are permanent (retrying a malformed request cannot
// help); everything else retries with jittered backoff. The breaker's
// half-open probe contract is honored: an admitted probe always reports
// success or failure.
func (c *Coordinator) callShard(ctx context.Context, s int, req *Request) (*Response, *Error) {
	c.mShardReq[s].Inc()
	br := c.breakers[s]
	admitted, _ := br.Admit()
	if !admitted {
		c.mShardErr[s].Inc()
		return nil, &Error{
			Status: http.StatusServiceUnavailable, Code: "overloaded",
			RetryAfter: wire.RetryAfterSeconds(c.opts.BreakerCooldown),
			Msg:        fmt.Sprintf("shard %d: breaker open", s),
		}
	}
	var (
		resp      *Response
		permanent *Error
	)
	err := c.retry.Do(ctx, func() error {
		r, callErr := c.transports[s].Call(ctx, req)
		if callErr == nil {
			resp = r
			return nil
		}
		var se *Error
		if errors.As(callErr, &se) && !se.Retryable() {
			permanent = se
			return nil // stop retrying: client-fault answers don't change
		}
		return callErr
	})
	switch {
	case err == nil && permanent == nil:
		br.Success()
		return resp, nil
	case permanent != nil:
		// The shard answered decisively; that is breaker-health success.
		br.Success()
		c.mShardErr[s].Inc()
		return nil, permanent
	default:
		br.Failure()
		c.mShardErr[s].Inc()
		return nil, Classify(err)
	}
}

// emitSpans writes one span per considered shard. Traces are
// single-goroutine, so spans are recorded after the parallel waves with
// the measured per-shard time carried in the micros attribute.
func (c *Coordinator) emitSpans(tr *obs.Trace, calls []shardCall) {
	if tr == nil {
		return
	}
	for _, sc := range calls {
		sp := tr.StartSpan(fmt.Sprintf("shard[%d]", sc.shard))
		sp.SetAttr("target", sc.target)
		sp.SetAttr("outcome", sc.outcome)
		if !math.IsInf(sc.bound, 1) {
			sp.SetAttr("bound", sc.bound)
		}
		if sc.outcome == "ok" {
			sp.SetAttr("answers", sc.answers)
			sp.SetAttr("micros", sc.micros)
			if sc.cacheHit {
				sp.SetAttr("shard_cache_hit", true)
			}
		}
		if sc.code != "" {
			sp.SetAttr("code", sc.code)
		}
		sp.End()
	}
}
