package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"fannr/internal/core"
	"fannr/internal/graph"
	"fannr/internal/gtree"
	"fannr/internal/obs"
	"fannr/internal/phl"
)

// explainServer builds a server over hub labels and a G-tree, serving
// every catalogue engine.
func explainServer(t *testing.T, opts Options) (*httptest.Server, *graph.Graph) {
	t.Helper()
	g, err := graph.Generate(graph.GenConfig{Nodes: 600, Seed: 17, Name: "exp"})
	if err != nil {
		t.Fatal(err)
	}
	labels, err := phl.Build(g, phl.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := gtree.Build(g, gtree.Options{MaxLeafSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	opts.Indexes = core.Indexes{PHL: labels, GTree: tr}
	srv, err := New(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, g
}

// spanCounters maps span count names to the /metrics counters the same
// deltas are flushed into per engine.
var spanCounters = map[string]string{
	"gphi_evals":   "fannr_gphi_evals_total",
	"gphi_subsets": "fannr_gphi_subsets_total",
	"heap_pops":    "fannr_heap_pops_total",
	"index_visits": "fannr_index_visits_total",
	"pruned":       "fannr_pruned_total",
	"settled":      "fannr_dijkstra_settled_total",
}

// collectSpans flattens a report's span tree.
func collectSpans(spans []*obs.ReportSpan) []*obs.ReportSpan {
	var out []*obs.ReportSpan
	for _, sp := range spans {
		out = append(out, sp)
		out = append(out, collectSpans(sp.Children)...)
	}
	return out
}

// TestExplainSpanCountsMatchCounters is the acceptance criterion: for
// every engine explainServer serves, ?explain=1 returns a span tree
// whose per-span op-count deltas sum to exactly the movement of that
// engine's fannr_* counters caused by the request.
func TestExplainSpanCountsMatchCounters(t *testing.T) {
	ts, _ := explainServer(t, Options{})
	engines := []struct{ engine, algo, wantSpan string }{
		{"INE", "gd", "algo:gd"},
		{"A*", "gd", "algo:gd"},
		{"IER-A*", "ier", "algo:ierknn"},
		{"PHL", "rlist", "algo:rlist"},
		{"IER-PHL", "ier", "algo:ierknn"},
		{"GTree", "gd", "algo:gd"},
		{"GTree-SPSP", "gd", "algo:gd"},
		{"IER-GTree", "ier", "algo:ierknn"},
	}
	req := FANNRequest{
		P: []graph.NodeID{10, 50, 100, 200, 400, 550}, Q: []graph.NodeID{5, 25, 125, 325},
		Phi: 0.5, Agg: "max",
	}
	for _, spec := range engines {
		before := scrapeMetrics(t, ts.URL)
		r := req
		r.Engine, r.Algo = spec.engine, spec.algo
		status, resp := post[FANNResponse](t, ts.URL+"/fann?explain=1", r)
		if status != http.StatusOK {
			t.Fatalf("%s: status %d", spec.engine, status)
		}
		if resp.Explain == nil {
			t.Fatalf("%s: no explain report on ?explain=1", spec.engine)
		}
		if resp.Explain.RequestID == "" || resp.Explain.DurMicros <= 0 {
			t.Fatalf("%s: report header %+v", spec.engine, resp.Explain)
		}
		after := scrapeMetrics(t, ts.URL)

		// The algorithm span is present and the root attrs name the engine.
		var algoSpan *obs.ReportSpan
		for _, sp := range collectSpans(resp.Explain.Spans) {
			if sp.Name == spec.wantSpan {
				algoSpan = sp
			}
		}
		if algoSpan == nil {
			t.Fatalf("%s: span %q missing from report %+v", spec.engine, spec.wantSpan, resp.Explain)
		}
		if agg, ok := algoSpan.Attrs["agg"]; !ok || agg != "max" {
			t.Fatalf("%s: algo span agg attr = %v", spec.engine, algoSpan.Attrs)
		}

		// Per-span counts, summed over the tree, equal the counter deltas.
		el := obs.L("engine", spec.engine)
		for countName, metric := range spanCounters {
			b, _ := before.Value(metric, el)
			a, ok := after.Value(metric, el)
			if !ok {
				t.Fatalf("%s: %s missing from scrape", spec.engine, metric)
			}
			delta := int64(a - b)
			if got := resp.Explain.Counts[countName]; got != delta {
				t.Fatalf("%s: report total %s = %d, counter delta = %d (report %+v)",
					spec.engine, countName, got, delta, resp.Explain.Counts)
			}
		}
		if resp.Explain.Counts["gphi_evals"] == 0 {
			t.Fatalf("%s: no g_phi evals attributed to any span", spec.engine)
		}
	}
}

// TestExplainOptIn: without the flag the response carries no report; the
// X-Fannr-Explain header is an alternate opt-in.
func TestExplainOptIn(t *testing.T) {
	ts, _ := testServer(t)
	req := FANNRequest{P: []graph.NodeID{1, 2, 3}, Q: []graph.NodeID{5, 6}, Phi: 0.5}
	status, resp := post[FANNResponse](t, ts.URL+"/fann", req)
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if resp.Explain != nil {
		t.Fatalf("explain present without opt-in: %+v", resp.Explain)
	}
	hr, err := http.NewRequest(http.MethodPost, ts.URL+"/fann",
		strings.NewReader(`{"p":[1,2,3],"q":[5,6],"phi":0.5}`))
	if err != nil {
		t.Fatal(err)
	}
	hr.Header.Set("X-Fannr-Explain", "1")
	raw, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Body.Close()
	var withHeader FANNResponse
	if err := json.NewDecoder(raw.Body).Decode(&withHeader); err != nil {
		t.Fatal(err)
	}
	if withHeader.Explain == nil {
		t.Fatal("X-Fannr-Explain header did not produce a report")
	}
}

// TestExplainCacheAndCoalesceSpans: with acceleration on, the report
// gains stage spans — a cache lookup (miss then exact) and a coalesce
// span with the leader role — and an exact hit's cache_hits span count
// matches the fannr_cache_hits_total movement.
func TestExplainCacheAndCoalesceSpans(t *testing.T) {
	g, err := graph.Generate(graph.GenConfig{Nodes: 200, Seed: 4, Name: "accel"})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(g, Options{CacheEntries: 128, Coalesce: true})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req := FANNRequest{P: []graph.NodeID{3, 40, 90}, Q: []graph.NodeID{7, 120}, Phi: 1}
	findSpan := func(rep *obs.Report, name string) *obs.ReportSpan {
		for _, sp := range collectSpans(rep.Spans) {
			if sp.Name == name {
				return sp
			}
		}
		return nil
	}

	status, cold := post[FANNResponse](t, ts.URL+"/fann?explain=1", req)
	if status != http.StatusOK || cold.Explain == nil {
		t.Fatalf("cold: status %d explain %v", status, cold.Explain)
	}
	cacheSp := findSpan(cold.Explain, "cache")
	if cacheSp == nil || cacheSp.Attrs["outcome"] != "miss" {
		t.Fatalf("cold cache span %+v, want outcome=miss", cacheSp)
	}
	coSp := findSpan(cold.Explain, "coalesce")
	if coSp == nil || coSp.Attrs["role"] != "leader" {
		t.Fatalf("cold coalesce span %+v, want role=leader", coSp)
	}
	if findSpan(cold.Explain, "compute") == nil || findSpan(cold.Explain, "admit") == nil {
		t.Fatalf("cold report lacks compute/admit stage spans: %+v", cold.Explain)
	}

	before := scrapeMetrics(t, ts.URL)
	status, warm := post[FANNResponse](t, ts.URL+"/fann?explain=1", req)
	if status != http.StatusOK || warm.Explain == nil {
		t.Fatalf("warm: status %d", status)
	}
	cacheSp = findSpan(warm.Explain, "cache")
	if cacheSp == nil || cacheSp.Attrs["outcome"] != "exact" {
		t.Fatalf("warm cache span %+v, want outcome=exact", cacheSp)
	}
	if cacheSp.Counts["cache_hits"] != 1 || warm.Explain.Counts["cache_hits"] != 1 {
		t.Fatalf("warm cache span counts %+v, report totals %+v", cacheSp.Counts, warm.Explain.Counts)
	}
	after := scrapeMetrics(t, ts.URL)
	b, _ := before.Value("fannr_cache_hits_total", obs.L("kind", "exact"))
	a, _ := after.Value("fannr_cache_hits_total", obs.L("kind", "exact"))
	if int64(a-b) != 1 {
		t.Fatalf("fannr_cache_hits_total{kind=exact} delta = %v, want 1", a-b)
	}
	// An exact hit computes nothing: no algorithm span, no engine ops.
	if sp := findSpan(warm.Explain, "algo:gd"); sp != nil {
		t.Fatalf("warm hit still ran the algorithm: %+v", sp)
	}
	if warm.Explain.Counts["gphi_evals"] != 0 {
		t.Fatalf("warm hit attributed engine ops: %+v", warm.Explain.Counts)
	}
}

// chaosINE delays every distance evaluation — the injected-latency
// engine for the slow-log acceptance test.
type chaosINE struct {
	core.GPhi
	delay time.Duration
}

func (e *chaosINE) Dist(p graph.NodeID, k int, agg core.Aggregate) (float64, bool) {
	time.Sleep(e.delay)
	return e.GPhi.Dist(p, k, agg)
}

// TestSlowLogCaptureAndExemplarLinkage is the chaos acceptance: an
// injected-latency request shows up in /debug/slow, its request id is
// the exemplar on the latency histogram, and the full trace is
// retrievable by that id — the p99-spike-to-trace walk an operator does.
func TestSlowLogCaptureAndExemplarLinkage(t *testing.T) {
	g, err := graph.Generate(graph.GenConfig{Nodes: 200, Seed: 9, Name: "chaos"})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.AddEngine("Chaos", func() core.GPhi {
		return &chaosINE{GPhi: core.NewINE(g), delay: 15 * time.Millisecond}
	}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Background of fast queries, then the one slow one with a known id.
	body := `{"p":[3,40,90],"q":[7,120],"phi":1,"engine":"INE"}`
	for i := 0; i < 3; i++ {
		resp, err := http.Post(ts.URL+"/fann", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	slowReq, err := http.NewRequest(http.MethodPost, ts.URL+"/fann",
		strings.NewReader(`{"p":[3,40,90],"q":[7,120],"phi":1,"engine":"Chaos"}`))
	if err != nil {
		t.Fatal(err)
	}
	slowReq.Header.Set("X-Request-ID", "chaos-probe-1")
	raw, err := http.DefaultClient.Do(slowReq)
	if err != nil {
		t.Fatal(err)
	}
	raw.Body.Close()
	if raw.StatusCode != http.StatusOK {
		t.Fatalf("chaos query status %d", raw.StatusCode)
	}

	// The histogram exemplars on /metrics point at the slow request.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	exs, err := obs.ParseExemplars(mresp.Body)
	mresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	exemplarID := ""
	for series, ex := range exs {
		if strings.HasPrefix(series, "fannr_query_compute_seconds_bucket") &&
			strings.Contains(series, `engine="Chaos"`) && ex.RequestID == "chaos-probe-1" {
			exemplarID = ex.RequestID
		}
	}
	if exemplarID == "" {
		t.Fatalf("no compute-seconds exemplar names the chaos request; got %v", exs)
	}

	// The snapshot ranks the injected-latency query slowest.
	sresp, err := http.Get(ts.URL + "/debug/slow")
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.SlowSnapshot
	if err := json.NewDecoder(sresp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if len(snap.Slowest) == 0 || snap.Slowest[0].RequestID != "chaos-probe-1" {
		t.Fatalf("slowest capture %+v, want chaos-probe-1 first", snap.Slowest)
	}

	// Full trace retrievable by the exemplar's id.
	eresp, err := http.Get(ts.URL + "/debug/slow?id=" + exemplarID)
	if err != nil {
		t.Fatal(err)
	}
	var entry obs.SlowEntry
	if err := json.NewDecoder(eresp.Body).Decode(&entry); err != nil {
		t.Fatal(err)
	}
	eresp.Body.Close()
	if entry.Trace == nil || entry.Engine != "Chaos" || entry.Outcome != "ok" {
		t.Fatalf("captured entry %+v, want full trace on engine Chaos", entry)
	}
	found := false
	for _, sp := range collectSpans(entry.Trace.Spans) {
		if sp.Name == "algo:gd" {
			found = true
		}
	}
	if !found {
		t.Fatalf("captured trace lacks the algorithm span: %+v", entry.Trace)
	}

	// Errored requests are always retained, even when fast.
	ereq, err := http.NewRequest(http.MethodPost, ts.URL+"/fann",
		strings.NewReader(`{"p":[],"q":[7],"phi":1}`))
	if err != nil {
		t.Fatal(err)
	}
	ereq.Header.Set("X-Request-ID", "bad-query-1")
	raw, err = http.DefaultClient.Do(ereq)
	if err != nil {
		t.Fatal(err)
	}
	raw.Body.Close()
	sresp, err = http.Get(ts.URL + "/debug/slow")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(sresp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if len(snap.Errors) == 0 || snap.Errors[0].RequestID != "bad-query-1" || snap.Errors[0].Outcome != "invalid" {
		t.Fatalf("error capture %+v, want bad-query-1/invalid newest", snap.Errors)
	}
}

// TestExplainAbandonedMatchesCounter: GD over PHL or INE evaluates every
// data point and, from the first incumbent on, ends most of those
// evaluations on a bound — PHL's hub prefix, INE's frontier or the
// Euclidean pre-bound. The algo span reports how many as its abandoned
// attribute, equal to the movement of fannr_gphi_abandoned_total and
// above 0 — with the count of evaluations still |P| — and both engines
// give the same answer.
func TestExplainAbandonedMatchesCounter(t *testing.T) {
	ts, g := explainServer(t, Options{})
	req := FANNRequest{Q: []graph.NodeID{5, 25, 125, 325}, Phi: 0.5, Agg: "max", Algo: "gd"}
	for v := 3; v < g.NumNodes(); v += 7 {
		req.P = append(req.P, graph.NodeID(v))
	}
	var best [2]FANNAnswer
	for i, engine := range []string{"PHL", "INE"} {
		el := obs.L("engine", engine)
		before := scrapeMetrics(t, ts.URL)
		req.Engine = engine
		status, resp := post[FANNResponse](t, ts.URL+"/fann?explain=1", req)
		if status != http.StatusOK || len(resp.Answers) != 1 {
			t.Fatalf("%s: status %d, answers %+v", engine, status, resp.Answers)
		}
		best[i] = resp.Answers[0]
		after := scrapeMetrics(t, ts.URL)
		a, ok := after.Value("fannr_gphi_abandoned_total", el)
		if !ok {
			t.Fatalf("%s: fannr_gphi_abandoned_total missing from scrape", engine)
		}
		b, _ := before.Value("fannr_gphi_abandoned_total", el)
		var attr float64
		for _, sp := range collectSpans(resp.Explain.Spans) {
			if sp.Name == "algo:gd" {
				attr, _ = sp.Attrs["abandoned"].(float64)
			}
		}
		if attr != a-b || a-b <= 0 {
			t.Fatalf("%s: algo:gd abandoned attr %v, counter moved %v over %d points", engine, attr, a-b, len(req.P))
		}
		if got := resp.Explain.Counts["gphi_evals"]; got != int64(len(req.P)) {
			t.Fatalf("%s: %d evaluations for |P| = %d", engine, got, len(req.P))
		}
	}
	// A hub sum and a path sum may round differently in the last place.
	if d := best[0].Dist - best[1].Dist; best[0].P != best[1].P || d > 1e-9*best[1].Dist || d < -1e-9*best[1].Dist {
		t.Fatalf("PHL answered %+v, INE %+v", best[0], best[1])
	}
}
