package shard

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime/debug"
	"slices"
	"strconv"
	"time"

	"fannr/internal/core"
	"fannr/internal/graph"
	"fannr/internal/qcache"
	"fannr/internal/wire"
)

// HostOptions configures one shard host.
type HostOptions struct {
	// PoolCapacity bounds each engine pool's free list (default 2).
	PoolCapacity int
	// Limits is the pool admission policy (zero = EnginePool defaults).
	Limits core.PoolLimits
	// CacheEntries sizes the host-local result cache (0 disables it).
	CacheEntries int
	// RetryAfter is the hint attached to shed responses (default 1s).
	RetryAfter time.Duration
	// Check, when set, gates every request: a lifecycle error returned
	// here (ErrUnavailable, IndexFault) surfaces with the index-fault /
	// overloaded taxonomy before any engine is touched. This is where a
	// host built over reloadable indexes plugs its holder state in.
	Check func() error
}

// Host serves one shard: the full engine set over the (replicated)
// graph, answering FANN queries restricted to the P-objects the
// coordinator routes here. It is the single-process server's serving
// core — pool admission, result cache, taxonomy — behind the framed
// shard RPC instead of the public JSON API.
type Host struct {
	ID    int
	g     *graph.Graph
	opts  HostOptions
	pools map[string]*core.EnginePool
	order []string
	cache *qcache.Cache
	// sets remembers the slices of P layers the coordinator routes here
	// (and repeated Q sets): the same list arrives with every request
	// over a layer, and Validate sorts it once (core/sets.go).
	sets *core.SetRegistry
}

// NewHost creates a host over g. Engines are added with AddEngine.
func NewHost(id int, g *graph.Graph, opts HostOptions) *Host {
	if opts.PoolCapacity < 1 {
		opts.PoolCapacity = 2
	}
	if opts.RetryAfter <= 0 {
		opts.RetryAfter = time.Second
	}
	h := &Host{ID: id, g: g, opts: opts, pools: map[string]*core.EnginePool{}, sets: core.NewSetRegistry()}
	if opts.CacheEntries > 0 {
		h.cache = qcache.New(qcache.Config{MaxEntries: opts.CacheEntries})
	}
	return h
}

// AddEngine registers a named engine pool.
func (h *Host) AddEngine(name string, factory core.EngineFactory) error {
	if _, dup := h.pools[name]; dup {
		return fmt.Errorf("shard: host %d: duplicate engine %q", h.ID, name)
	}
	h.pools[name] = core.NewBoundedEnginePool(name, h.opts.PoolCapacity, h.opts.Limits, factory)
	h.order = append(h.order, name)
	return nil
}

// Engines lists the registered engine names in registration order.
func (h *Host) Engines() []string { return append([]string(nil), h.order...) }

func (h *Host) retryAfterSecs() int {
	secs := int(h.opts.RetryAfter.Round(time.Second) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// Execute answers one shard RPC. An empty P (the coordinator routed no
// objects here) and a query whose best candidate is unreachable both
// return an empty Answers list: per-shard "nothing found" is a
// successful empty reply — only the coordinator, seeing every shard, can
// declare the global query unanswerable. Errors come back classified
// (see Classify) so both transports preserve the taxonomy.
func (h *Host) Execute(ctx context.Context, req *Request) (*Response, error) {
	start := time.Now()
	if h.opts.Check != nil {
		if err := h.opts.Check(); err != nil {
			return nil, Classify(err, h.retryAfterSecs())
		}
	}
	if len(req.P) == 0 {
		return &Response{Engine: req.Engine}, nil
	}
	q := core.Query{P: req.P, Q: req.Q, Phi: req.Phi, Sets: h.sets}
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
	if err := q.Validate(h.g); err != nil {
		return nil, Classify(err, 0)
	}
	k := req.K
	if k < 1 {
		k = 1
	}
	engine := req.Engine
	if engine == "" {
		engine = h.order[0]
	}
	pool, ok := h.pools[engine]
	if !ok {
		return nil, Classify(fmt.Errorf("%w: unknown engine %q", core.ErrInvalid, engine), 0)
	}

	algo := req.Algo
	if algo == "" {
		algo = "gd"
	}
	var rkey qcache.ResultKey
	if h.cache != nil {
		rkey = qcache.ResultKey{Engine: engine, Algo: algo, Agg: q.Agg, Phi: q.Phi, K: k}
		rkey.P, rkey.Q = q.Fingerprints()
		if answers, hit := h.cache.GetResult(rkey); hit {
			resp := h.respond(engine, answers, start)
			resp.CacheHit = true
			return resp, nil
		}
	}

	gp, err := pool.Acquire(ctx)
	if err != nil {
		return nil, Classify(err, h.retryAfterSecs())
	}
	// A Scratch rides with the engine checkout, as on the single-process
	// server. The answers' subsets may alias it until respond has copied
	// them, so it goes back to the pool only after that; after a failed
	// dispatch (a panicking engine may have left it mid-update) it is
	// dropped.
	scr := pool.GetScratch()
	q.Scratch = scr
	answers, err := h.dispatch(pool, gp, algo, q, k)
	if err != nil && !errors.Is(err, core.ErrNoResult) {
		return nil, Classify(err, h.retryAfterSecs())
	}
	if err == nil && h.cache != nil {
		h.cache.PutResult(rkey, answers)
	}
	resp := h.respond(engine, answers, start)
	pool.PutScratch(scr)
	return resp, nil
}

// dispatch runs the algorithm and returns the engine to its pool; a
// panicking engine is discarded (capacity is restored with a fresh
// instance) and surfaces as an internal fault, never a crash.
func (h *Host) dispatch(pool *core.EnginePool, gp core.GPhi, algo string, q core.Query, k int) (answers []core.Answer, err error) {
	finished := false
	defer func() {
		if r := recover(); r != nil {
			pool.Discard()
			answers = nil
			err = fmt.Errorf("shard: engine panic: %v\n%s", r, debug.Stack())
			return
		}
		if !finished {
			pool.Discard()
		} else {
			pool.Release(gp)
		}
	}()
	answers, err = core.Dispatch(h.g, algo, gp, q, k)
	finished = true
	return answers, err
}

func (h *Host) respond(engine string, answers []core.Answer, start time.Time) *Response {
	resp := &Response{Engine: engine, Micros: time.Since(start).Microseconds()}
	for _, a := range answers {
		resp.Answers = append(resp.Answers, Answer{
			P: a.P, Dist: a.Dist, Subset: append([]graph.NodeID(nil), a.Subset...),
		})
	}
	return resp
}

// Handler serves the shard RPC:
//
//	POST /shard/fann — framed Request → framed Response
//	GET  /shard/healthz — liveness + the Check hook's verdict
//
// Error responses are plain JSON {error, code} with the HTTP status from
// the taxonomy and Retry-After on sheds — byte-compatible with the
// public server's error surface, which is what lets the coordinator
// relay them without translation.
func (h *Host) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /shard/fann", h.handleFANN)
	mux.HandleFunc("GET /shard/healthz", h.handleHealthz)
	return mux
}

func (h *Host) handleFANN(w http.ResponseWriter, r *http.Request) {
	body, err := wire.ReadBody(http.MaxBytesReader(w, r.Body, maxFramePayload+frameHeader+frameTrailer), r.ContentLength)
	if err != nil {
		failHTTP(w, Classify(fmt.Errorf("%w: reading frame: %w", ErrCodec, err), 0))
		return
	}
	req, err := DecodeRequest(body.Bytes())
	body.Release() // the decoded request does not alias the frame
	if err != nil {
		failHTTP(w, Classify(err, 0))
		return
	}
	resp, err := h.Execute(r.Context(), req)
	if err != nil {
		failHTTP(w, Classify(err, h.retryAfterSecs()))
		return
	}
	frame, err := EncodeResponse(resp)
	if err != nil {
		failHTTP(w, Classify(err, 0))
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Fannr-Shard", strconv.Itoa(h.ID))
	w.WriteHeader(http.StatusOK)
	w.Write(frame)
}

func (h *Host) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if h.opts.Check != nil {
		if err := h.opts.Check(); err != nil {
			failHTTP(w, Classify(err, h.retryAfterSecs()))
			return
		}
	}
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\"status\":\"ok\",\"shard\":%d,\"engines\":%d}\n", h.ID, len(h.pools))
}

// sortAnswers keeps merged answer lists ordered by distance then node id
// (shared by the coordinator's merge).
func sortAnswers(answers []Answer) {
	slices.SortFunc(answers, func(a, b Answer) int {
		return cmp.Or(cmp.Compare(a.Dist, b.Dist), cmp.Compare(a.P, b.P))
	})
}
