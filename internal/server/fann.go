package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"fannr/internal/core"
	"fannr/internal/obs"
	"fannr/internal/qcache"
	"fannr/internal/wire"
)

// FANNRequest is the /fann request body (Engine defaults to "INE"): the
// one definition and the one decoder every tier shares.
type FANNRequest = wire.FANNRequest

// FANNAnswer is one result of a /fann call.
type FANNAnswer = wire.FANNAnswer

// FANNResponse is the /fann response body.
type FANNResponse = wire.FANNResponse

// maxFANNBody bounds the /fann request body (point sets can be large but
// not unbounded); maxDistBody bounds /dist.
const (
	maxFANNBody = 16 << 20
	maxDistBody = 1 << 20
)

// fannCall is one /fann request on its way through the stages. It lives
// on handleFANN's stack: no stage keeps a pointer to it.
type fannCall struct {
	w     http.ResponseWriter
	r     *http.Request
	req   *FANNRequest
	call  wire.Call
	ctx   context.Context
	tr    *obs.Trace
	stats *core.Stats
	start time.Time

	// Where the request is served and what it may use (route).
	served   string
	gen      uint64
	degraded bool
	probe    bool
	reported bool
	accel    bool
	rkey     qcache.ResultKey
	em       *engineMetrics

	// How it ended, for the log record and the slow-query log.
	outcome       string
	cacheKind     string // "exact" | "coalesced" | "" (computed or cache off)
	leaderID      string // coalesce leader this request's answer came from
	coalesced     bool
	computeMicros int64
}

// handleFANN runs the request path as a chain of stages — decode, cache,
// coalesce, admit, pin, compute — each owning the span of its name. The
// deferred record fires on every exit path, so failed requests are logged
// with their outcome code just like successes.
func (s *Server) handleFANN(w http.ResponseWriter, r *http.Request) {
	var req FANNRequest
	c := fannCall{w: w, r: r, req: &req, tr: obs.NewTrace(requestID(r.Context())),
		stats: &core.Stats{}, start: time.Now(), outcome: "ok"}
	defer s.record(&c)
	if err := s.decode(&c); err != nil {
		s.fail(&c, err)
		return
	}
	if err := s.route(&c); err != nil {
		s.fail(&c, err)
		return
	}
	defer s.settleProbe(&c)
	if s.cached(&c) {
		return
	}
	// The query lifecycle is bounded by the request: the context ends when
	// the client disconnects, and -query-timeout adds a server-side
	// deadline on top — covering the coalesce and admission waits as well
	// as the compute; a cache hit reads no context. The Cancel hook polls
	// an atomic the context watcher flips, so every algorithm aborts at
	// its next loop boundary.
	c.ctx = r.Context()
	if s.queryTimeout > 0 {
		var cancel context.CancelFunc
		c.ctx, cancel = context.WithTimeout(c.ctx, s.queryTimeout)
		defer cancel()
	}
	answers, err := s.coalesce(&c)
	if err != nil {
		s.fail(&c, s.judge(&c, err))
		return
	}
	if !c.coalesced {
		s.report(&c, true)
	}
	micros := c.computeMicros
	if c.coalesced {
		micros = time.Since(c.start).Microseconds()
	}
	if c.cacheKind != "" {
		c.tr.Root().SetAttr("cache", c.cacheKind)
	}
	s.reply(&c, answers, micros)
}

// decode is the request-side stage: read, parse and normalise. Its span
// covers Validate's canonicalisation, which also yields the fingerprints
// the result key is built from.
func (s *Server) decode(c *fannCall) error {
	sp := c.tr.StartSpan("decode")
	defer sp.End()
	if err := wire.ReadFANN(c.w, c.r, maxFANNBody, c.req); err != nil {
		return err
	}
	c.call.Stats, c.call.Trace = c.stats, c.tr
	if err := s.tier.Normalise(c.req, &c.call); err != nil {
		return err
	}
	sp.SetAttr("sets", c.call.PSight().String())
	return nil
}

// route walks the breaker/fallback ladder to the engine that will serve
// and decides what the request may take from the acceleration layers.
func (s *Server) route(c *fannCall) error {
	var ok bool
	c.served, c.degraded, c.probe, ok = s.routeEngine(c.call.Engine)
	if !ok {
		return fmt.Errorf("%w: engine %q unavailable: breaker open and no closed fallback", core.ErrSaturated, c.call.Engine)
	}
	c.em = s.metrics.engines[c.served]
	c.gen = s.engines[c.served].holder.State().Generation
	root := c.tr.Root()
	root.SetAttr("engine", c.call.Engine)
	root.SetAttr("served", c.served)
	if c.gen != 0 {
		root.SetAttr("generation", c.gen)
	}
	if c.degraded {
		root.SetAttr("degraded", true)
	}
	// Canonical fingerprints make permuted-but-equal P/Q share cache
	// entries and flights. Half-open probes bypass every layer — a probe
	// exists to exercise the engine, and a cache hit or shared flight
	// would "prove" recovery without touching it.
	c.accel = (s.qc != nil || s.flight != nil) && !c.probe
	if c.accel {
		// A file-backed engine stamps its index generation into the key: a
		// swap invalidates every result computed on the old index, and
		// coalesced flights never pair queries across generations.
		engine := c.served
		if c.gen != 0 {
			engine = generationKey(c.served, c.gen)
		}
		c.rkey = qcache.NewResultKey(engine, c.call.Algo, &c.call.Query, c.call.K)
	}
	return nil
}

// routeEngine resolves which pool serves a request for requested: the
// engine itself while its breaker admits, otherwise the first engine
// down the fallback ladder whose breaker does. A half-open breaker
// admits exactly one caller — the recovery probe, flagged so the
// handler can guarantee the probe reports an outcome no matter how the
// request ends. ok is false when the ladder ends with every breaker
// open.
func (s *Server) routeEngine(requested string) (served string, degraded, probe, ok bool) {
	name := requested
	for hops := 0; hops <= len(s.engines); hops++ {
		// A quarantined index skips its engines entirely — same degrade
		// semantics as an open breaker, but gated on the index's lifecycle
		// state, not failure counts.
		if r := s.engines[name]; r != nil && r.holder.State().Live {
			if admitted, isProbe := s.breakers[name].Admit(); admitted {
				return name, name != requested, isProbe, true
			}
		}
		next, has := s.fallback[name]
		if !has {
			return "", false, false, false
		}
		name = next
	}
	return "", false, false, false
}

// report records a breaker verdict on the served engine. A half-open
// probe must report — until it does the breaker admits nobody — so every
// verdict goes through here, where settleProbe can see it was given.
func (s *Server) report(c *fannCall, healthy bool) {
	c.reported = true
	if healthy {
		s.breakers[c.served].Success()
	} else {
		s.breakers[c.served].Failure()
	}
}

// settleProbe fails a half-open probe that ended without a verdict of its
// own (shed, queue timeout, canceled dispatch: "timeouts prove nothing").
// Left silent it would wedge the circuit half-open forever; as a failure
// it re-opens with a fresh cooldown, and a probe that could not finish is
// indeed no evidence of recovery.
func (s *Server) settleProbe(c *fannCall) {
	if c.probe && !c.reported {
		s.breakers[c.served].Failure()
	}
}

// cached is the cache stage: an exact result hit answers without an
// engine checkout. The breaker is not consulted — serving from memory
// says nothing about the engine.
func (s *Server) cached(c *fannCall) bool {
	if !c.accel {
		return false
	}
	sp := c.tr.StartSpan("cache")
	sp.SetAttr("key_engine", c.rkey.Engine)
	answers, ok := s.qc.GetResult(c.rkey)
	if !ok {
		sp.SetAttr("outcome", "miss")
		sp.End()
		return false
	}
	c.stats.CountCacheHit()
	c.cacheKind = "exact"
	// The span carries the hit so per-span counts still sum to the
	// request's counter deltas (no algorithm span ran).
	sp.SetAttr("outcome", "exact")
	sp.Count("cache_hits", 1)
	sp.End()
	s.reply(c, answers, time.Since(c.start).Microseconds())
	return true
}

// coalesce is the coalesce stage: concurrent identical queries share one
// compute. The leader computes here; followers wait and adopt shareable
// outcomes. A follower never reports to the breaker (it ran nothing),
// and a canceled or failed leader promotes a follower instead of
// poisoning it.
func (s *Server) coalesce(c *fannCall) ([]core.Answer, error) {
	if s.flight == nil || !c.accel {
		return s.compute(c)
	}
	sp := c.tr.StartSpan("coalesce")
	defer sp.End()
	v, err, coalesced, leader := s.flight.Do(c.ctx, c.rkey, c.tr.ID, func() (any, error) { return s.compute(c) })
	var answers []core.Answer
	if v != nil {
		answers = v.([]core.Answer)
	}
	c.leaderID = leader
	if !coalesced {
		sp.SetAttr("role", "leader")
		return answers, err
	}
	// The follower's trace and log record name the leader whose compute
	// produced this answer; the span carries the coalesced hit so per-span
	// counts still sum to the request's counter deltas.
	c.coalesced, c.cacheKind = true, "coalesced"
	c.stats.CountCacheHit()
	sp.SetAttr("role", "follower")
	sp.SetAttr("leader", leader)
	sp.Count("cache_hits", 1)
	if m := s.metrics.coalesced; m != nil {
		m.Inc()
	}
	return answers, err
}

// compute is one engine run: the admit stage (bounded admission, with
// the pin stage inside it), then the compute stage, then the result-cache
// fill. It runs on the request's goroutine — directly, or as a flight
// leader on behalf of coalesced followers.
func (s *Server) compute(c *fannCall) (answers []core.Answer, err error) {
	// Fault containment is armed first, so its recover runs last. Every
	// step below may touch a mapped index — engine factories inside the
	// checkout as well as the dispatch — and a SIGBUS on a rotted page
	// must become a classified error plus a quarantine, not a dead
	// process. (An engine that merely panics comes back from Run as an
	// error.)
	defer s.ranges.Guard(s.noteIndexFault)(&err)

	// The checkout pins the generation that holds the engine's pool:
	// released last, after the engine is back in that pool, the pin is what
	// keeps a file-backed mapping alive while this request computes,
	// however many swaps land meanwhile. Admission then waits in the pool's
	// queue up to the deadline; saturation beyond the queue sheds with
	// 503 + Retry-After.
	endAdmit := c.tr.Start("admit")
	pinSp := c.tr.StartSpan("pin")
	pin, err := s.engines[c.served].holder.Acquire()
	if err != nil {
		pinSp.End()
		endAdmit()
		return nil, err
	}
	defer pin.Release()
	if gen := pin.Generation(); gen != 0 {
		pinSp.SetAttr("generation", gen)
	}
	pinSp.End()
	pool := pin.Value().(*generation).pools[c.served]
	stop := c.call.BindContext(c.ctx)
	defer stop()
	defer c.em.flush(c.stats)

	var sp *obs.Span
	var began time.Time
	answers, err = pool.Run(c.ctx, s.g, c.call.Algo, c.call.Query, c.call.K, func(gp core.GPhi) core.GPhi {
		endAdmit()
		// The engine's settles count into this request's Stats.
		core.BindStats(gp, c.stats)
		core.BindCancel(gp, c.ctx.Done())
		began = time.Now()
		sp = c.tr.StartSpan("compute")
		return gp
	})
	if sp == nil { // admission refused: no engine was checked out
		endAdmit()
		return nil, err
	}
	sp.End()
	elapsed := time.Since(began)
	c.computeMicros = elapsed.Microseconds()
	c.em.compute.ObserveEx(elapsed.Seconds(), c.tr.ID)
	// Only a request that may use the cache fills it: a half-open probe
	// has no result key.
	if err == nil && c.accel {
		s.qc.PutResult(c.rkey, answers)
	}
	return answers, err
}

// judge gives a failed request's verdict to the breaker and names the
// deadline behind a cancellation. Client-fault and no-result outcomes
// prove the engine worked; internal errors — an engine panic among them —
// and index faults count against it. Timeouts prove nothing (a probe's
// settleProbe fails it), and coalesced followers never report: they ran
// nothing.
func (s *Server) judge(c *fannCall, err error) error {
	if errors.Is(err, core.ErrCanceled) {
		// A server-side deadline is a 504 the client will read; a vanished
		// client just gets the connection closed.
		if ctxErr := c.ctx.Err(); ctxErr != nil {
			err = fmt.Errorf("%w: %w", err, ctxErr)
		}
	}
	if !c.coalesced {
		switch status, code := wire.Classify(err); {
		case status == http.StatusInternalServerError, code == "index_fault":
			s.report(c, false)
		case status == http.StatusBadRequest, status == http.StatusNotFound:
			s.report(c, true)
		}
	}
	return err
}

// fail answers err with its row of the error table and records its code
// as the request's outcome.
func (s *Server) fail(c *fannCall, err error) {
	_, c.outcome = wire.Classify(err)
	wire.WriteError(c.w, err)
}

// reply writes the 200: the answers as served, and the trace when the
// request asked for it (?explain=1 or X-Fannr-Explain).
func (s *Server) reply(c *fannCall, answers []core.Answer, micros int64) {
	if c.degraded {
		c.em.degraded.Inc()
	}
	resp := FANNResponse{Micros: micros, Engine: c.served, Degraded: c.degraded}
	if len(answers) > 0 { // no answers encode as null
		resp.Answers = answers
	}
	if c.r.URL.RawQuery != "" && c.r.URL.Query().Get("explain") == "1" || c.r.Header.Get("X-Fannr-Explain") != "" {
		resp.Explain = c.tr.Report()
	}
	wire.WriteFANNResponse(c.w, &resp)
}

// record ends the request's trace and logs it: one structured record
// when the logger is on (the attributes are only built for a logger that
// prints them), and the slow-query log, which keeps the N slowest
// requests and every errored or degraded one with their full span tree
// at /debug/slow?id=<request_id>.
func (s *Server) record(c *fannCall) {
	elapsed := time.Since(c.start)
	if s.logger.Enabled(c.r.Context(), slog.LevelInfo) {
		s.logger.LogAttrs(c.r.Context(), slog.LevelInfo, "fann",
			slog.String("request_id", c.tr.ID),
			slog.String("engine", c.req.Engine),
			slog.String("served", c.served),
			slog.Bool("degraded", c.degraded),
			slog.String("algo", c.req.Algo),
			slog.Float64("phi", c.req.Phi),
			slog.Int("np", len(c.call.P)),
			slog.Int("nq", len(c.call.Q)),
			slog.Int("k", c.call.K),
			slog.String("outcome", c.outcome),
			slog.Duration("duration", elapsed),
			slog.Duration("decode", c.tr.Dur("decode")),
			slog.Duration("cache_lookup", c.tr.Dur("cache")),
			slog.Duration("coalesce", c.tr.Dur("coalesce")),
			slog.Duration("admit", c.tr.Dur("admit")),
			slog.Duration("pin", c.tr.Dur("pin")),
			slog.Duration("compute", c.tr.Dur("compute")),
			slog.Int64("gphi_evals", c.stats.GPhiEvals),
			slog.Int64("gphi_abandoned", c.stats.GPhiAbandoned),
			slog.Int64("settled", c.stats.Settled),
			slog.Int64("heap_pops", c.stats.HeapPops),
			slog.String("cache", c.cacheKind),
			slog.String("leader", c.leaderID),
			slog.Int64("cache_hits", c.stats.CacheHits),
		)
	}
	root := c.tr.Root()
	root.SetAttr("outcome", c.outcome)
	root.End()
	// A fast ok request costs the slow log one atomic load, and no report.
	errored, dur := c.outcome != "ok" || c.degraded, elapsed.Microseconds()
	if !errored && !s.slow.Keeps(dur) {
		return
	}
	s.slow.Record(obs.SlowEntry{
		RequestID: c.tr.ID,
		Algo:      c.req.Algo,
		Engine:    c.served,
		Outcome:   c.outcome,
		Degraded:  c.degraded,
		Start:     c.start,
		DurMicros: dur,
		Trace:     c.tr.Report(),
	}, errored)
}

// generationKey is the engine member of a file-backed engine's cache key,
// engine@generation. Appended into a stack buffer: the string is the only
// allocation, on a path every request of such an engine takes, cache hits
// included.
func generationKey(engine string, gen uint64) string {
	var buf [64]byte
	b := append(buf[:0], engine...)
	b = append(b, '@')
	return string(strconv.AppendUint(b, gen, 10))
}
