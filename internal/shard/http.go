package shard

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime/debug"
	"strconv"
	"time"

	"fannr/internal/core"
	"fannr/internal/obs"
	"fannr/internal/resil"
	"fannr/internal/wire"
)

// FANNRequest is the single-process server's /fann request body, read
// by the same decoder, so a client can point at a coordinator without
// changing a byte.
type FANNRequest = wire.FANNRequest

// FANNResponse extends the server's response shape with the
// scatter-gather accounting: which shards were down (degraded partial
// answers are stamped, never silent), how many were contacted and how
// many the bound pruned.
type FANNResponse struct {
	Answers []Answer `json:"answers"`
	Micros  int64    `json:"micros"`
	Engine  string   `json:"engine"`

	Degraded        bool        `json:"degraded,omitempty"`
	DegradedShards  []int       `json:"degraded_shards,omitempty"`
	ShardsContacted int         `json:"shards_contacted"`
	ShardsPruned    int         `json:"shards_pruned"`
	CacheHit        bool        `json:"cache_hit,omitempty"`
	Explain         *obs.Report `json:"explain,omitempty"`
}

// ErrorResponse matches the server's error body.
type ErrorResponse struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

// Handler serves the coordinator's public surface:
//
//	POST /fann     — coordinated FANN query (?explain=1 adds spans)
//	GET  /healthz  — coordinator liveness
//	GET  /readyz   — per-shard breaker states; 503 once every shard is out
//	GET  /meta     — plan topology (S, epoch, per-shard sizes, targets)
//	GET  /metrics  — fannr_shard_* (when a Registry was provided)
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /fann", c.handleFANN)
	mux.HandleFunc("GET /healthz", c.handleHealthz)
	mux.HandleFunc("GET /readyz", c.handleReadyz)
	mux.HandleFunc("GET /meta", c.handleMeta)
	if c.opts.Registry != nil {
		mux.Handle("GET /metrics", c.opts.Registry.Handler())
	}
	return recoverPanics(mux)
}

// recoverPanics turns a handler panic into a 500 — a shard bug must not
// take the coordinator down with it.
func recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				writeJSON(w, http.StatusInternalServerError, ErrorResponse{
					Error: fmt.Sprintf("internal error: %v", rec), Code: "internal",
				})
				debug.PrintStack()
			}
		}()
		next.ServeHTTP(w, r)
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// failHTTP writes a classified error, relaying the {error, code} body
// and the Retry-After hint end-to-end — a shard's 503 leaves the
// coordinator as a 503 with the same code, not a generic 500.
func failHTTP(w http.ResponseWriter, se *Error) {
	if se.RetryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(se.RetryAfter))
	}
	writeJSON(w, se.Status, ErrorResponse{Error: se.Msg, Code: se.Code})
}

func (c *Coordinator) handleFANN(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	var req FANNRequest
	if err := wire.ReadFANN(w, r, maxFramePayload, &req); err != nil {
		failHTTP(w, Classify(fmt.Errorf("%w: decoding request: %w", core.ErrInvalid, err), 0))
		return
	}
	explain := r.URL.Query().Get("explain") == "1" || r.Header.Get("X-Fannr-Explain") != ""
	var tr *obs.Trace
	if explain {
		tr = obs.NewTrace(obs.NewRequestID())
	}
	res, err := c.Execute(r.Context(), &req, tr)
	if err != nil {
		failHTTP(w, Classify(err, int(c.opts.RetryAfter.Round(time.Second)/time.Second)))
		return
	}
	resp := FANNResponse{
		Answers: res.Answers, Micros: time.Since(start).Microseconds(),
		Engine: res.Engine, Degraded: res.Degraded, DegradedShards: res.DownShards,
		ShardsContacted: res.Contacted, ShardsPruned: res.Pruned, CacheHit: res.CacheHit,
	}
	if resp.Answers == nil {
		resp.Answers = []Answer{}
	}
	if tr != nil {
		tr.Root().End()
		resp.Explain = tr.Report()
	}
	writeJSON(w, http.StatusOK, resp)
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "shards": c.plan.Shards()})
}

// shardStatus is one shard's /readyz row.
type shardStatus struct {
	Shard   int    `json:"shard"`
	Target  string `json:"target"`
	Breaker string `json:"breaker"`
	Objects int    `json:"vertices"`
}

func (c *Coordinator) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	out := struct {
		Status  string        `json:"status"`
		Epoch   uint64        `json:"epoch"`
		Healthy int           `json:"healthy"`
		Total   int           `json:"total"`
		Shards  []shardStatus `json:"shards"`
	}{Epoch: c.plan.Epoch, Total: c.plan.Shards()}
	for s := 0; s < c.plan.Shards(); s++ {
		st := c.breakers[s].State()
		if st != resil.Open {
			out.Healthy++
		}
		out.Shards = append(out.Shards, shardStatus{
			Shard: s, Target: c.targets[s],
			Breaker: st.String(), Objects: len(c.plan.Group(s)),
		})
	}
	status := http.StatusOK
	switch {
	case out.Healthy == out.Total:
		out.Status = "ready"
	case out.Healthy > 0:
		out.Status = "degraded"
	default:
		out.Status = "unavailable"
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, out)
}

// setsMeta is /meta's view of the coordinator's set registry.
type setsMeta struct {
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
}

func (c *Coordinator) handleMeta(w http.ResponseWriter, _ *http.Request) {
	sets := c.SetMetrics()
	type shardMeta struct {
		Shard    int    `json:"shard"`
		Target   string `json:"target"`
		Vertices int    `json:"vertices"`
	}
	out := struct {
		Shards  int         `json:"shards"`
		Epoch   uint64      `json:"epoch"`
		Graph   string      `json:"graph"`
		Nodes   int         `json:"nodes"`
		Engine  string      `json:"default_engine"`
		Targets []shardMeta `json:"targets"`
		Sets    setsMeta    `json:"sets"`
	}{
		Shards: c.plan.Shards(), Epoch: c.plan.Epoch,
		Graph: c.plan.g.Name(), Nodes: c.plan.g.NumNodes(),
		Engine: c.opts.DefaultEngine,
		Sets:   setsMeta{Entries: sets.Entries, Bytes: sets.Bytes},
	}
	for s := 0; s < c.plan.Shards(); s++ {
		out.Targets = append(out.Targets, shardMeta{
			Shard: s, Target: c.targets[s], Vertices: len(c.plan.Group(s)),
		})
	}
	writeJSON(w, http.StatusOK, out)
}
