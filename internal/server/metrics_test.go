package server

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"fannr/internal/graph"
	"fannr/internal/obs"
)

// scrapeMetrics fetches /metrics and parses it with the in-repo scraper —
// the same round trip a Prometheus server would make.
func scrapeMetrics(t *testing.T, baseURL string) obs.Scrape {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	sc, err := obs.ParseExposition(resp.Body)
	if err != nil {
		t.Fatalf("parsing exposition: %v", err)
	}
	return sc
}

// TestMetricsEndToEnd drives real queries and asserts the whole metric
// surface moves: request series, compute histograms, op counters, pool
// gauges, breaker states.
func TestMetricsEndToEnd(t *testing.T) {
	ts, _ := testServer(t)
	const n = 4
	for i := 0; i < n; i++ {
		status, _ := post[FANNResponse](t, ts.URL+"/fann", FANNRequest{
			P: []graph.NodeID{10, 20, 30, 40}, Q: []graph.NodeID{100, 200, 300},
			Phi: 0.5, Algo: "gd", Engine: "INE",
		})
		if status != http.StatusOK {
			t.Fatalf("query %d status %d", i, status)
		}
	}
	// One request on a second engine so per-engine series are distinct.
	if status, _ := post[FANNResponse](t, ts.URL+"/fann", FANNRequest{
		P: []graph.NodeID{10, 20, 30, 40}, Q: []graph.NodeID{100, 200, 300},
		Phi: 0.5, Algo: "rlist", Engine: "PHL",
	}); status != http.StatusOK {
		t.Fatalf("PHL query status %d", status)
	}

	sc := scrapeMetrics(t, ts.URL)
	ine := obs.L("engine", "INE")
	checks := []struct {
		name   string
		labels []obs.Label
		min    float64
	}{
		{"fannr_requests_total", []obs.Label{obs.L("code", "200"), obs.L("route", "fann")}, n + 1},
		{"fannr_request_seconds_count", []obs.Label{obs.L("route", "fann")}, n + 1},
		{"fannr_query_compute_seconds_count", []obs.Label{ine}, n},
		{"fannr_gphi_evals_total", []obs.Label{ine}, n * 4}, // GD evaluates all of P
		{"fannr_gphi_abandoned_total", []obs.Label{ine}, 0}, // exposed; INE has no bound to abandon on
		{"fannr_gphi_subsets_total", []obs.Label{ine}, n},
		{"fannr_dijkstra_settled_total", []obs.Label{ine}, 1},
		{"fannr_heap_pops_total", []obs.Label{obs.L("engine", "PHL")}, 1}, // R-List pops
		{"fannr_pool_created_total", []obs.Label{ine}, 1},
		{"fannr_pool_reused_total", []obs.Label{ine}, 1},
	}
	for _, c := range checks {
		v, ok := sc.Value(c.name, c.labels...)
		if !ok {
			t.Fatalf("metric %s%v missing from scrape", c.name, c.labels)
		}
		if v < c.min {
			t.Fatalf("metric %s%v = %v, want >= %v", c.name, c.labels, v, c.min)
		}
	}
	for _, zero := range []string{"fannr_breaker_state", "fannr_pool_inflight", "fannr_pool_queued"} {
		if v, ok := sc.Value(zero, ine); !ok || v != 0 {
			t.Fatalf("%s{engine=INE} = %v (ok=%v), want present and 0", zero, v, ok)
		}
	}
	if v, ok := sc.Value("fannr_draining"); !ok || v != 0 {
		t.Fatalf("fannr_draining = %v (ok=%v), want present and 0", v, ok)
	}
	if v, ok := sc.Value("fannr_uptime_seconds"); !ok || v < 0 {
		t.Fatalf("fannr_uptime_seconds = %v (ok=%v)", v, ok)
	}
}

// TestMetaSchemaAndRegistryAgreement is the /meta regression test: the
// JSON shape PR 3 shipped must survive the registry refactor key for
// key, and the numbers must be the registry's numbers.
func TestMetaSchemaAndRegistryAgreement(t *testing.T) {
	ts, _ := testServer(t)
	if status, _ := post[FANNResponse](t, ts.URL+"/fann", FANNRequest{
		P: []graph.NodeID{10, 20, 30}, Q: []graph.NodeID{100, 200},
		Phi: 0.5, Engine: "INE",
	}); status != http.StatusOK {
		t.Fatalf("warmup query status %d", status)
	}

	resp, err := http.Get(ts.URL + "/meta")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var meta map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&meta); err != nil {
		t.Fatal(err)
	}

	for _, key := range []string{"dataset", "nodes", "edges", "coords", "engines", "pools", "dist", "limits", "fallback", "draining", "cache"} {
		if _, ok := meta[key]; !ok {
			t.Fatalf("/meta lost top-level key %q: %v", key, meta)
		}
	}
	// testServer runs with acceleration off: the cache section must still
	// be present, with every layer reported disabled.
	cache, ok := meta["cache"].(map[string]any)
	if !ok {
		t.Fatalf("/meta cache is %T, want object", meta["cache"])
	}
	for _, key := range []string{"enabled", "coalescing"} {
		if on, ok := cache[key].(bool); !ok || on {
			t.Fatalf("/meta cache.%s = %v (ok=%v), want false", key, cache[key], ok)
		}
	}
	if _, ok := cache["entries"]; ok {
		t.Fatalf("/meta cache reports entries while disabled: %v", cache)
	}
	pools, ok := meta["pools"].(map[string]any)
	if !ok {
		t.Fatalf("/meta pools is %T, want object", meta["pools"])
	}
	ine, ok := pools["INE"].(map[string]any)
	if !ok {
		t.Fatalf("/meta pools.INE is %T, want object", pools["INE"])
	}
	for _, key := range []string{"created", "reused", "idle", "inflight", "queued", "shed", "breaker"} {
		if _, ok := ine[key]; !ok {
			t.Fatalf("/meta pools.INE lost key %q: %v", key, ine)
		}
	}
	if ine["breaker"] != "closed" {
		t.Fatalf("/meta pools.INE.breaker = %v, want closed", ine["breaker"])
	}
	dist, ok := meta["dist"].(map[string]any)
	if !ok {
		t.Fatalf("/meta dist is %T, want object", meta["dist"])
	}
	for _, key := range []string{"inflight", "queued", "shed"} {
		if _, ok := dist[key]; !ok {
			t.Fatalf("/meta dist lost key %q: %v", key, dist)
		}
	}

	// Cross-check: /meta's numbers ARE the registry's numbers.
	sc := scrapeMetrics(t, ts.URL)
	created, _ := sc.Value("fannr_pool_created_total", obs.L("engine", "INE"))
	if got := ine["created"].(float64); got != created {
		t.Fatalf("/meta created %v != /metrics fannr_pool_created_total %v", got, created)
	}
}

// TestRequestIDEchoAndAssign: a client-supplied X-Request-ID is echoed
// back verbatim; absent one, the server assigns a unique id.
func TestRequestIDEchoAndAssign(t *testing.T) {
	ts, _ := testServer(t)
	body := strings.NewReader(`{"p":[1,2,3],"q":[5,6],"phi":0.5}`)
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/fann", body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", "client-supplied-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "client-supplied-42" {
		t.Fatalf("X-Request-ID echoed as %q, want client-supplied-42", got)
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got == "" {
		t.Fatal("server did not assign an X-Request-ID")
	}
}

// TestPprofGated: the profiling surface only exists behind Options.Pprof.
func TestPprofGated(t *testing.T) {
	g, err := graph.Generate(graph.GenConfig{Nodes: 60, Seed: 3, Name: "pprof"})
	if err != nil {
		t.Fatal(err)
	}
	for _, enabled := range []bool{false, true} {
		srv, err := New(g, Options{Pprof: enabled})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		resp, err := http.Get(ts.URL + "/debug/pprof/")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		ts.Close()
		wantOK := enabled
		if gotOK := resp.StatusCode == http.StatusOK; gotOK != wantOK {
			t.Fatalf("pprof enabled=%v: /debug/pprof/ status %d", enabled, resp.StatusCode)
		}
	}
}

// TestStructuredRequestLog: every /fann request produces one slog record
// carrying the request id, engine, outcome and stage timings.
func TestStructuredRequestLog(t *testing.T) {
	g, err := graph.Generate(graph.GenConfig{Nodes: 120, Seed: 8, Name: "logs"})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	srv, err := New(g, Options{Logger: slog.New(slog.NewJSONHandler(&buf, nil))})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req, err := http.NewRequest(http.MethodPost, ts.URL+"/fann",
		strings.NewReader(`{"p":[1,2,3],"q":[5,6],"phi":0.5,"engine":"INE"}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", "log-test-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("log output is not one JSON record: %v\n%s", err, buf.String())
	}
	if rec["request_id"] != "log-test-1" {
		t.Fatalf("log request_id = %v, want log-test-1", rec["request_id"])
	}
	if rec["outcome"] != "ok" || rec["served"] != "INE" || rec["degraded"] != false {
		t.Fatalf("log record %v, want outcome=ok served=INE degraded=false", rec)
	}
	for _, key := range []string{"duration", "decode", "admit", "compute", "gphi_evals", "gphi_abandoned", "settled"} {
		if _, ok := rec[key]; !ok {
			t.Fatalf("log record missing %q: %v", key, rec)
		}
	}

	// A failing request logs its outcome code too.
	buf.Reset()
	resp, err = http.Post(ts.URL+"/fann", "application/json", strings.NewReader(`{"p":[],"q":[5],"phi":0.5}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("error-path log: %v\n%s", err, buf.String())
	}
	if rec["outcome"] != "invalid" {
		t.Fatalf("error-path outcome = %v, want invalid", rec["outcome"])
	}
}
