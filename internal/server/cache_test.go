package server

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fannr/internal/core"
	"fannr/internal/graph"
	"fannr/internal/obs"
	"fannr/internal/phl"
	"fannr/internal/qcache"
	"fannr/internal/resil"
)

// cacheServer builds a server over a small generated graph with the
// acceleration options under test. Unlike testServer it keeps only the
// built-in engines, so pool assertions see exactly the traffic the test
// generates.
func cacheServer(t *testing.T, opts Options) (*Server, *httptest.Server, *graph.Graph) {
	t.Helper()
	g, err := graph.Generate(graph.GenConfig{Nodes: 400, Seed: 31, Name: "cache"})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts, g
}

// TestCacheExactHit: the second identical request is answered from the
// result cache — same answers, no second compute observation, and the
// exact-hit counter moves on /metrics, /meta and /readyz.
func TestCacheExactHit(t *testing.T) {
	_, ts, _ := cacheServer(t, Options{CacheEntries: 256})
	req := FANNRequest{
		P: []graph.NodeID{10, 20, 30, 40}, Q: []graph.NodeID{100, 200, 300},
		Phi: 0.5, Engine: "INE",
	}
	status, cold := post[FANNResponse](t, ts.URL+"/fann", req)
	if status != http.StatusOK {
		t.Fatalf("cold status %d", status)
	}
	status, warm := post[FANNResponse](t, ts.URL+"/fann", req)
	if status != http.StatusOK {
		t.Fatalf("warm status %d", status)
	}
	if len(warm.Answers) != len(cold.Answers) || warm.Answers[0].P != cold.Answers[0].P ||
		warm.Answers[0].Dist != cold.Answers[0].Dist {
		t.Fatalf("warm answers %+v differ from cold %+v", warm.Answers, cold.Answers)
	}

	sc := scrapeMetrics(t, ts.URL)
	if v, ok := sc.Value(mCacheHits, obs.L("kind", "exact")); !ok || v != 1 {
		t.Fatalf("%s{kind=exact} = %v (ok=%v), want 1", mCacheHits, v, ok)
	}
	// The exact hit skips the engine: exactly one compute observation.
	if v, ok := sc.Value("fannr_query_compute_seconds_count", obs.L("engine", "INE")); !ok || v != 1 {
		t.Fatalf("compute count = %v (ok=%v), want 1", v, ok)
	}

	_, meta := getJSON(t, ts.URL+"/meta")
	mc, ok := meta["cache"].(map[string]any)
	if !ok || mc["enabled"] != true {
		t.Fatalf("/meta cache = %v", meta["cache"])
	}
	if e, ok := mc["entries"].(float64); !ok || e < 1 {
		t.Fatalf("/meta cache.entries = %v", mc["entries"])
	}
	if hr, ok := mc["hit_rate"].(float64); !ok || hr <= 0 || hr > 1 {
		t.Fatalf("/meta cache.hit_rate = %v", mc["hit_rate"])
	}

	_, ready := getJSON(t, ts.URL+"/readyz")
	rc, ok := ready["cache"].(map[string]any)
	if !ok || rc["enabled"] != true {
		t.Fatalf("/readyz cache = %v", ready["cache"])
	}
	if _, ok := rc["hit_rate"].(float64); !ok {
		t.Fatalf("/readyz cache lacks hit_rate: %v", rc)
	}
}

// TestCoalesceCollapsesDuplicates: concurrent identical requests against
// a slow engine share one computation — every response carries the same
// answer, the engine evaluated each candidate once, and the coalesced
// counter records the followers.
func TestCoalesceCollapsesDuplicates(t *testing.T) {
	g, err := graph.Generate(graph.GenConfig{Nodes: 200, Seed: 11, Name: "coal"})
	if err != nil {
		t.Fatal(err)
	}
	eng := &slowEngine{inner: core.NewINE(g), delay: 5 * time.Millisecond, firstDist: make(chan struct{})}
	srv, err := New(g, Options{Coalesce: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.AddEngine("Slow", func() core.GPhi { return eng }); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	req := FANNRequest{
		P: []graph.NodeID{2, 40, 80, 120}, Q: []graph.NodeID{5, 25, 125},
		Phi: 0.5, Engine: "Slow",
	}
	const clients = 4
	var wg sync.WaitGroup
	answers := make([]FANNResponse, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, resp := post[FANNResponse](t, ts.URL+"/fann", req)
			if status != http.StatusOK {
				t.Errorf("client %d status %d", i, status)
				return
			}
			answers[i] = resp
		}(i)
	}
	wg.Wait()
	for i := 1; i < clients; i++ {
		a, b := answers[i].Answers[0], answers[0].Answers[0]
		if a.P != b.P || a.Dist != b.Dist {
			t.Fatalf("client %d answer %+v differs from %+v", i, a, b)
		}
	}
	if calls := eng.calls.Load(); calls != int64(len(req.P)) {
		t.Fatalf("engine evaluated %d candidates, want %d (one shared compute)", calls, len(req.P))
	}
	sc := scrapeMetrics(t, ts.URL)
	if v, ok := sc.Value(mCoalesced); !ok || v != clients-1 {
		t.Fatalf("%s = %v (ok=%v), want %d", mCoalesced, v, ok, clients-1)
	}
}

// TestIERPHLAnswersMatchPHL: over one PHL index the two engine names are
// one neighbour search, so the same (P, Q, φ, agg, algo, k) returns
// byte-identical answers under either name.
func TestIERPHLAnswersMatchPHL(t *testing.T) {
	g, err := graph.Generate(graph.GenConfig{Nodes: 600, Seed: 33, Name: "twin"})
	if err != nil {
		t.Fatal(err)
	}
	labels, err := phl.Build(g, phl.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(g, Options{Indexes: core.Indexes{PHL: labels}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	rng := rand.New(rand.NewSource(33))
	var P, Q []graph.NodeID
	for _, v := range rng.Perm(g.NumNodes())[:80] {
		if len(P) < 60 {
			P = append(P, graph.NodeID(v))
		} else {
			Q = append(Q, graph.NodeID(v))
		}
	}
	type answers struct {
		Answers json.RawMessage `json:"answers"`
	}
	ask := func(req FANNRequest) string {
		t.Helper()
		status, got := post[answers](t, ts.URL+"/fann", req)
		if status != http.StatusOK || len(got.Answers) == 0 {
			t.Fatalf("%s/%s φ=%v: status %d, answers %q", req.Engine, req.Algo, req.Phi, status, got.Answers)
		}
		return string(got.Answers)
	}
	for _, c := range []FANNRequest{
		{Algo: "gd", Agg: "max", K: 1},
		{Algo: "ier", Agg: "sum", K: 10},
	} {
		c.P, c.Q, c.Phi = P, Q, 0.5
		c.Engine = "PHL"
		want := ask(c)
		c.Engine = "IER-PHL"
		if ier := ask(c); ier != want {
			t.Fatalf("%s/%s k=%d: answers differ between PHL and IER-PHL:\n%s\n%s", c.Algo, c.Agg, c.K, want, ier)
		}
	}
}

// TestHalfOpenProbeFillsNoCache: a half-open probe bypasses the cache, so
// it must not fill it either. The probe has no result key; an entry
// stored under the zero key would take an LRU slot and its bytes, and
// nothing could ever read it.
func TestHalfOpenProbeFillsNoCache(t *testing.T) {
	g, err := graph.Generate(graph.GenConfig{Nodes: 120, Seed: 37, Name: "probe"})
	if err != nil {
		t.Fatal(err)
	}
	const cooldown = 40 * time.Millisecond
	srv, err := New(g, Options{CacheEntries: 128, BreakerThreshold: 1, BreakerCooldown: cooldown})
	if err != nil {
		t.Fatal(err)
	}
	var mode atomic.Int32
	mode.Store(1) // every evaluation panics
	if err := srv.AddEngine("Flaky", func() core.GPhi {
		return &modalINE{GPhi: core.NewINE(g), mode: &mode}
	}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	body := []byte(`{"p":[1,20,40],"q":[5,55],"phi":0.5,"engine":"Flaky"}`)
	if status, e := postRaw(t, ts.URL+"/fann", body); status != http.StatusInternalServerError {
		t.Fatalf("panic request: status %d (%+v), want 500", status, e)
	}
	mode.Store(0)
	time.Sleep(cooldown + 20*time.Millisecond)
	if status, e := postRaw(t, ts.URL+"/fann", body); status != http.StatusOK {
		t.Fatalf("probe: status %d (%+v), want 200", status, e)
	}
	if st := srv.breakers["Flaky"].State(); st != resil.Closed {
		t.Fatalf("breaker %v after the probe, want closed: the request was not the probe", st)
	}
	if n := srv.qc.Metrics().Entries; n != 0 {
		t.Fatalf("the probe left %d cache entries, want 0", n)
	}
	if _, ok := srv.qc.GetResult(qcache.ResultKey{}); ok {
		t.Fatal("the probe's answers are cached under the zero key")
	}
}
