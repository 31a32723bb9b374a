package shard

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"time"

	"fannr/internal/core"
	"fannr/internal/graph"
	"fannr/internal/qcache"
	"fannr/internal/wire"
)

// hostPoolCapacity bounds each host engine pool's free list: a host
// serves the calls one coordinator fans out to it, at most a wave's
// worth at a time.
const hostPoolCapacity = 2

// HostOptions configures one shard host.
type HostOptions struct {
	// CacheEntries sizes the host-local result cache (0 disables it).
	CacheEntries int
	// Check, when set, gates every request: a lifecycle error returned
	// here (ErrUnavailable, IndexFault) surfaces with the index-fault /
	// overloaded taxonomy before any engine is touched. This is where a
	// host built over reloadable indexes plugs its holder state in.
	Check func() error
}

// Host serves one shard: the full engine set over the (replicated)
// graph, answering FANN queries restricted to the P-objects the
// coordinator routes here. It runs the single-process server's request
// path after decode — normalise, result key, cache, engine run — behind
// the framed shard RPC instead of the public JSON API.
type Host struct {
	ID    int
	opts  HostOptions
	pools map[string]*core.EnginePool
	cache *qcache.Cache
	// tier is the host's configuration of the normalise step: the first
	// engine added is the default, and the registry remembers the slices
	// of P layers the coordinator routes here (and repeated Q sets), so
	// Validate sorts each once (core/sets.go).
	tier wire.Tier
}

// NewHost creates a host over g. Engines are added with AddEngine.
func NewHost(id int, g *graph.Graph, opts HostOptions) *Host {
	h := &Host{ID: id, opts: opts, pools: map[string]*core.EnginePool{}}
	h.tier = wire.Tier{Graph: g, Sets: core.NewSetRegistry(), HasEngine: func(name string) bool {
		_, ok := h.pools[name]
		return ok
	}}
	if opts.CacheEntries > 0 {
		h.cache = qcache.New(qcache.Config{MaxEntries: opts.CacheEntries})
	}
	return h
}

// AddEngine registers a named engine pool; the first is the default.
func (h *Host) AddEngine(name string, factory core.EngineFactory) error {
	if _, dup := h.pools[name]; dup {
		return fmt.Errorf("shard: host %d: duplicate engine %q", h.ID, name)
	}
	h.pools[name] = core.NewBoundedEnginePool(name, hostPoolCapacity, core.PoolLimits{}, factory)
	if h.tier.DefaultEngine == "" {
		h.tier.DefaultEngine = name
	}
	return nil
}

// AddCatalogue registers every engine of the catalogue ix serves on the
// host's graph (core.Catalogue), in the catalogue's order — INE first,
// so it is the default. It is how fannr-shard builds its hosts.
func (h *Host) AddCatalogue(ix core.Indexes) error {
	for _, e := range core.Catalogue(h.tier.Graph, ix) {
		if err := h.AddEngine(e.Name, e.New); err != nil {
			return err
		}
	}
	return nil
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
			return nil, Classify(err)
		}
	}
	if len(req.P) == 0 {
		return &Response{Engine: req.Engine}, nil
	}
	var c wire.Call
	if err := h.tier.Normalise(req, &c); err != nil {
		return nil, Classify(err)
	}
	var rkey qcache.ResultKey
	if h.cache != nil {
		rkey = qcache.NewResultKey(c.Engine, c.Algo, &c.Query, c.K)
		if answers, hit := h.cache.GetResult(rkey); hit {
			resp := respond(c.Engine, answers, start)
			resp.CacheHit = true
			return resp, nil
		}
	}
	answers, err := h.pools[c.Engine].Run(ctx, h.tier.Graph, c.Algo, c.Query, c.K, nil)
	if err != nil && !errors.Is(err, core.ErrNoResult) {
		return nil, Classify(err)
	}
	if err == nil && h.cache != nil {
		h.cache.PutResult(rkey, answers)
	}
	return respond(c.Engine, answers, start), nil
}

// respond is answers as the RPC ships them.
func respond(engine string, answers []core.Answer, start time.Time) *Response {
	return &Response{Engine: engine, Answers: shardAnswers(answers), Micros: time.Since(start).Microseconds()}
}

// shardAnswers is answers in the RPC's shape. The subsets are shared, not
// copied: an engine run detaches them from its Scratch, and a cached
// answer is never written again.
func shardAnswers(answers []core.Answer) []Answer {
	var out []Answer
	for _, a := range answers {
		out = append(out, Answer{P: a.P, Dist: a.Dist, Subset: a.Subset})
	}
	return out
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
	return wire.Recover(mux)
}

func (h *Host) handleFANN(w http.ResponseWriter, r *http.Request) {
	body, err := wire.ReadBody(http.MaxBytesReader(w, r.Body, maxFramePayload+frameHeader+frameTrailer), r.ContentLength)
	if err != nil {
		wire.WriteError(w, fmt.Errorf("%w: reading frame: %w", ErrCodec, err))
		return
	}
	req, err := DecodeRequest(body.Bytes())
	body.Release() // the decoded request does not alias the frame
	if err != nil {
		wire.WriteError(w, err)
		return
	}
	resp, err := h.Execute(r.Context(), req)
	if err != nil {
		wire.WriteError(w, err)
		return
	}
	frame, err := EncodeResponse(resp)
	if err != nil {
		wire.WriteError(w, err)
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
			wire.WriteError(w, err)
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
