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
	"fannr/internal/obs"
	"fannr/internal/qcache"
	"fannr/internal/resil"
)

// CoordinatorOptions configures the scatter-gather front end.
type CoordinatorOptions struct {
	// DefaultEngine is used when a request names none (default "INE").
	DefaultEngine string
	// BreakerThreshold / BreakerCooldown configure the per-shard circuit
	// breakers (defaults 3 failures / 5s; threshold < 0 disables).
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
	// RetryAfter is the hint attached to coordinator sheds (default 1s).
	RetryAfter time.Duration
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
	Answers []Answer
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
	Micros     int64
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
	if opts.DefaultEngine == "" {
		opts.DefaultEngine = "INE"
	}
	if opts.BreakerThreshold == 0 {
		opts.BreakerThreshold = 3
	}
	if opts.BreakerThreshold < 0 {
		opts.BreakerThreshold = 0 // disabled breaker admits everything
	}
	if opts.BreakerCooldown <= 0 {
		opts.BreakerCooldown = 5 * time.Second
	}
	if opts.MaxFanout < 1 {
		opts.MaxFanout = 4
	}
	if opts.RetryAfter <= 0 {
		opts.RetryAfter = time.Second
	}
	c := &Coordinator{plan: plan, transports: transports, opts: opts}
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

func (c *Coordinator) register(reg *obs.Registry) {
	if reg == nil {
		return
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
			switch br.State() {
			case resil.Open:
				return 2
			case resil.HalfOpen:
				return 1
			default:
				return 0
			}
		}, l)
	}
}

// Plan returns the coordinator's partition plan.
func (c *Coordinator) Plan() *Plan { return c.plan }

// SetMetrics snapshots the coordinator's set registry (for /meta and
// the differential harness).
func (c *Coordinator) SetMetrics() core.SetMetrics { return c.plan.sets.Metrics() }

// BreakerState exposes a shard's breaker state (for /readyz and tests).
func (c *Coordinator) BreakerState(s int) resil.State { return c.breakers[s].State() }

// TripShard force-opens a shard's breaker by feeding it failures — the
// chaos hook tests and operators use to take a shard out of rotation.
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

// Execute runs one coordinated query. tr may be nil; when set, one span
// per candidate-bearing shard lands under the current trace position.
func (c *Coordinator) Execute(ctx context.Context, req *Request, tr *obs.Trace) (*Result, error) {
	start := time.Now()
	if c.mQueries != nil {
		c.mQueries.Inc()
	}
	engine := req.Engine
	if engine == "" {
		engine = c.opts.DefaultEngine
	}
	// Validated through the plan's registry: a P layer (or a Q) seen
	// before is neither sorted again here nor, below, cut again.
	q := core.Query{P: req.P, Q: req.Q, Phi: req.Phi, Sets: c.plan.sets}
	switch req.Agg {
	case "", "max":
		q.Agg = core.Max
	case "sum":
		q.Agg = core.Sum
	default:
		return nil, Classify(fmt.Errorf("%w: unknown aggregate %q", core.ErrInvalid, req.Agg), 0)
	}
	if !core.KnownAlgo(req.Algo) {
		return nil, Classify(fmt.Errorf("%w: unknown algorithm %q", core.ErrInvalid, req.Algo), 0)
	}
	if err := q.Validate(c.plan.g); err != nil {
		return nil, Classify(err, 0)
	}
	k := req.K
	if k < 1 {
		k = 1
	}

	// Topology-stamped exact cache: engine@shards:<epoch>:<healthy mask>.
	var rkey qcache.ResultKey
	algo := req.Algo
	if algo == "" {
		algo = "gd"
	}
	if c.cache != nil {
		rkey = qcache.ResultKey{
			Engine: c.cacheEngine(engine),
			Algo:   algo, Agg: q.Agg, Phi: q.Phi, K: k,
		}
		rkey.P, rkey.Q = q.Fingerprints()
		if answers, hit := c.cache.GetResult(rkey); hit {
			if c.mCacheHit != nil {
				c.mCacheHit.Inc()
			}
			res := &Result{Engine: engine, CacheHit: true, Micros: time.Since(start).Microseconds()}
			for _, a := range answers {
				res.Answers = append(res.Answers, Answer{P: a.P, Dist: a.Dist, Subset: a.Subset})
			}
			return res, nil
		}
		if c.mCacheMiss != nil {
			c.mCacheMiss.Inc()
		}
	}

	// Scatter: route P, bound candidate-bearing shards, order best-first.
	perShard := c.plan.SplitP(q.P)
	kAgg := q.K()
	type cand struct {
		shard int
		bound float64
	}
	var order []cand
	for s, ps := range perShard {
		if len(ps) == 0 {
			continue
		}
		order = append(order, cand{s, c.plan.Bound(s, q.Q, kAgg, q.Agg)})
	}
	slices.SortFunc(order, func(a, b cand) int {
		return cmp.Or(cmp.Compare(a.bound, b.bound), cmp.Compare(a.shard, b.shard))
	})

	var (
		merged    []Answer
		calls     []shardCall
		down      []int
		downErrs  []*Error
		contacted int
		pruned    int
		succeeded int
	)
	kthDist := math.Inf(1)
	tighten := func() {
		sortAnswers(merged)
		if len(merged) > k {
			merged = merged[:k]
		}
		if len(merged) == k {
			kthDist = merged[k-1].Dist
		}
	}

	for i := 0; i < len(order); {
		// Bounds ascend, kthDist only shrinks: once one shard prunes,
		// every remaining shard prunes too.
		if order[i].bound >= kthDist {
			for ; i < len(order); i++ {
				pruned++
				calls = append(calls, shardCall{shard: order[i].shard, target: c.targets[order[i].shard], bound: order[i].bound, outcome: "pruned"})
			}
			break
		}
		wave := order[i:]
		if len(wave) > c.opts.MaxFanout {
			wave = wave[:c.opts.MaxFanout]
		}
		i += len(wave)

		results := make([]shardCall, len(wave))
		responses := make([]*Response, len(wave))
		errs := make([]*Error, len(wave))
		// The first call of a wave runs on this goroutine, which would
		// otherwise only wait; a one-shard wave then starts none.
		call := func(wi int, cd cand) {
			sc := shardCall{shard: cd.shard, target: c.targets[cd.shard], bound: cd.bound}
			resp, se := c.callShard(ctx, cd.shard, &Request{
				P: perShard[cd.shard], Q: q.Q, Phi: q.Phi, Agg: req.Agg,
				Algo: req.Algo, Engine: engine, K: k,
			})
			if se != nil {
				sc.outcome, sc.code = "down", se.Code
				errs[wi] = se
			} else {
				sc.outcome, sc.answers = "ok", len(resp.Answers)
				sc.micros, sc.cacheHit = resp.Micros, resp.CacheHit
				responses[wi] = resp
			}
			results[wi] = sc
		}
		var wg sync.WaitGroup
		for wi, cd := range wave[1:] {
			wg.Add(1)
			go func(wi int, cd cand) {
				defer wg.Done()
				call(wi, cd)
			}(wi+1, cd)
		}
		call(0, wave[0])
		wg.Wait()
		for wi, cd := range wave {
			calls = append(calls, results[wi])
			if errs[wi] != nil {
				down = append(down, cd.shard)
				downErrs = append(downErrs, errs[wi])
				contacted++
				continue
			}
			contacted++
			succeeded++
			merged = append(merged, responses[wi].Answers...)
		}
		tighten()
	}

	if c.mContacted != nil {
		c.mContacted.Add(int64(contacted))
		c.mPruned.Add(int64(pruned))
		c.mFanout.Observe(float64(contacted))
	}
	c.emitSpans(tr, calls)
	sort.Ints(down)

	if len(down) > 0 && succeeded == 0 && len(order) > 0 {
		// Nothing answered: relay the shard fault, preferring the
		// overload class (it carries Retry-After and means "try again").
		se := downErrs[0]
		for _, e := range downErrs {
			if e.Status == http.StatusServiceUnavailable {
				se = e
				break
			}
		}
		if c.mDegraded != nil {
			c.mDegraded.Inc()
		}
		return nil, se
	}
	res := &Result{
		Engine: engine, Answers: merged,
		Degraded: len(down) > 0, DownShards: down,
		Contacted: contacted, Pruned: pruned,
		Micros: time.Since(start).Microseconds(),
	}
	if res.Degraded && c.mDegraded != nil {
		c.mDegraded.Inc()
	}
	if len(merged) == 0 {
		return res, Classify(core.ErrNoResult, 0)
	}
	if c.cache != nil && !res.Degraded {
		answers := make([]core.Answer, len(merged))
		for i, a := range merged {
			answers[i] = core.Answer{P: a.P, Dist: a.Dist, Subset: a.Subset}
		}
		c.cache.PutResult(rkey, answers)
	}
	return res, nil
}

// callShard wraps one transport call in the breaker and retry policy.
// 4xx-class faults are permanent (retrying a malformed request cannot
// help); everything else retries with jittered backoff. The breaker's
// half-open probe contract is honored: an admitted probe always reports
// success or failure.
func (c *Coordinator) callShard(ctx context.Context, s int, req *Request) (*Response, *Error) {
	if c.mShardReq != nil {
		c.mShardReq[s].Inc()
	}
	br := c.breakers[s]
	admitted, _ := br.Admit()
	if !admitted {
		if c.mShardErr != nil {
			c.mShardErr[s].Inc()
		}
		return nil, &Error{
			Status: http.StatusServiceUnavailable, Code: "overloaded",
			RetryAfter: int(c.opts.BreakerCooldown.Round(time.Second) / time.Second),
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
		if c.mShardErr != nil {
			c.mShardErr[s].Inc()
		}
		return nil, permanent
	default:
		br.Failure()
		if c.mShardErr != nil {
			c.mShardErr[s].Inc()
		}
		return nil, Classify(err, int(c.opts.RetryAfter.Round(time.Second)/time.Second))
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
