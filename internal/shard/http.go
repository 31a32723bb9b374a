package shard

import (
	"net/http"
	"time"

	"fannr/internal/core"
	"fannr/internal/obs"
	"fannr/internal/resil"
	"fannr/internal/wire"
)

// FANNResponse extends the server's response shape with the
// scatter-gather accounting: which shards were down (degraded partial
// answers are stamped, never silent), how many were contacted and how
// many the bound pruned.
type FANNResponse struct {
	Answers []core.Answer `json:"answers"`
	Micros  int64         `json:"micros"`
	Engine  string        `json:"engine"`

	Degraded        bool        `json:"degraded,omitempty"`
	DegradedShards  []int       `json:"degraded_shards,omitempty"`
	ShardsContacted int         `json:"shards_contacted"`
	ShardsPruned    int         `json:"shards_pruned"`
	CacheHit        bool        `json:"cache_hit,omitempty"`
	Explain         *obs.Report `json:"explain,omitempty"`
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
	return wire.Recover(mux)
}

func (c *Coordinator) handleFANN(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	var req Request // the single-process server's body, read by the same decoder
	if err := wire.ReadFANN(w, r, maxFramePayload, &req); err != nil {
		wire.WriteError(w, err)
		return
	}
	explain := r.URL.Query().Get("explain") == "1" || r.Header.Get("X-Fannr-Explain") != ""
	var tr *obs.Trace
	if explain {
		tr = obs.NewTrace(obs.NewRequestID())
	}
	res, err := c.Execute(r.Context(), &req, tr)
	if err != nil {
		wire.WriteError(w, err)
		return
	}
	resp := FANNResponse{
		Answers: res.Answers, Micros: time.Since(start).Microseconds(),
		Engine: res.Engine, Degraded: res.Degraded, DegradedShards: res.DownShards,
		ShardsContacted: res.Contacted, ShardsPruned: res.Pruned, CacheHit: res.CacheHit,
	}
	if resp.Answers == nil {
		resp.Answers = []core.Answer{}
	}
	if tr != nil {
		tr.Root().End()
		resp.Explain = tr.Report()
	}
	wire.WriteJSON(w, http.StatusOK, resp)
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	wire.WriteJSON(w, http.StatusOK, map[string]any{"status": "ok", "shards": c.plan.Shards()})
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
	wire.WriteJSON(w, status, out)
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
		Engine: c.tier.DefaultEngine,
		Sets:   setsMeta{Entries: sets.Entries, Bytes: sets.Bytes},
	}
	for s := 0; s < c.plan.Shards(); s++ {
		out.Targets = append(out.Targets, shardMeta{
			Shard: s, Target: c.targets[s], Vertices: len(c.plan.Group(s)),
		})
	}
	wire.WriteJSON(w, http.StatusOK, out)
}
