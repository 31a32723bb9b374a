package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fannr/internal/core"
	"fannr/internal/graph"
)

// postRaw posts a raw body and returns the status plus the decoded error
// shape (zero-valued on 2xx or non-JSON bodies).
func postRaw(t *testing.T, url string, body []byte) (int, ErrorResponse) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var e ErrorResponse
	_ = json.NewDecoder(resp.Body).Decode(&e)
	return resp.StatusCode, e
}

// TestErrorTaxonomy pins the full error contract of /fann and /dist: every
// failure class maps to a fixed status and a stable machine-readable code.
// The server runs over a disconnected two-component graph so the same
// instance can produce 404s (unreachable ⌈φ|Q|⌉) alongside the 400s.
func TestErrorTaxonomy(t *testing.T) {
	b := graph.NewBuilder(6)
	_ = b.AddEdge(0, 1, 1)
	_ = b.AddEdge(1, 2, 1)
	_ = b.AddEdge(3, 4, 1)
	_ = b.AddEdge(4, 5, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cases := []struct {
		name   string
		path   string
		body   string
		status int
		code   string
	}{
		{"malformed json", "/fann", `{"p":[1,2`, http.StatusBadRequest, "invalid"},
		{"wrong field type", "/fann", `{"p":"not-a-list"}`, http.StatusBadRequest, "invalid"},
		{"empty P", "/fann", `{"p":[],"q":[0,1],"phi":0.5}`, http.StatusBadRequest, "invalid"},
		{"empty Q", "/fann", `{"p":[0],"q":[],"phi":0.5}`, http.StatusBadRequest, "invalid"},
		{"phi zero", "/fann", `{"p":[0],"q":[1],"phi":0}`, http.StatusBadRequest, "invalid"},
		{"phi above one", "/fann", `{"p":[0],"q":[1],"phi":1.5}`, http.StatusBadRequest, "invalid"},
		{"node out of range", "/fann", `{"p":[0,1073741824],"q":[1],"phi":0.5}`, http.StatusBadRequest, "invalid"},
		{"negative node", "/fann", `{"p":[-3],"q":[1],"phi":0.5}`, http.StatusBadRequest, "invalid"},
		{"unknown aggregate", "/fann", `{"p":[0],"q":[1],"phi":0.5,"agg":"median"}`, http.StatusBadRequest, "invalid"},
		{"unknown engine", "/fann", `{"p":[0],"q":[1],"phi":0.5,"engine":"warp"}`, http.StatusBadRequest, "invalid"},
		{"unknown algorithm", "/fann", `{"p":[0],"q":[1],"phi":0.5,"algo":"psychic"}`, http.StatusBadRequest, "invalid"},
		{"ier without coords", "/fann", `{"p":[0],"q":[1],"phi":0.5,"algo":"ier"}`, http.StatusBadRequest, "invalid"},
		{"exactmax with sum", "/fann", `{"p":[0],"q":[1],"phi":0.5,"agg":"sum","algo":"exactmax"}`, http.StatusBadRequest, "invalid"},
		{"unreachable phi-subset", "/fann", `{"p":[0],"q":[3,4,5],"phi":1}`, http.StatusNotFound, "not_found"},
		{"unreachable across components", "/fann", `{"p":[0,1],"q":[5],"phi":1,"algo":"rlist"}`, http.StatusNotFound, "not_found"},
		{"dist malformed json", "/dist", `{"u":`, http.StatusBadRequest, "invalid"},
		{"dist node out of range", "/dist", `{"u":0,"v":99}`, http.StatusBadRequest, "invalid"},
		{"dist negative node", "/dist", `{"u":-1,"v":2}`, http.StatusBadRequest, "invalid"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, e := postRaw(t, ts.URL+tc.path, []byte(tc.body))
			if status != tc.status {
				t.Fatalf("status %d, want %d (error %+v)", status, tc.status, e)
			}
			if e.Code != tc.code {
				t.Fatalf("code %q, want %q (error %q)", e.Code, tc.code, e.Error)
			}
			if e.Error == "" {
				t.Fatal("empty error message")
			}
		})
	}

	// The happy path on the same server still answers, proving the error
	// cases above are request problems rather than server state.
	status, _ := postRaw(t, ts.URL+"/fann", []byte(`{"p":[0,2],"q":[1,2],"phi":1}`))
	if status != http.StatusOK {
		t.Fatalf("control query: status %d, want 200", status)
	}
}

// TestOversizedBodyIs413 pins the request-size limit: a body over the
// /dist cap keeps its *http.MaxBytesError identity through decoding and
// answers 413 with code "too_large", not 400.
func TestOversizedBodyIs413(t *testing.T) {
	ts, _ := testServer(t)
	pad := strings.Repeat("x", maxDistBody+1024)
	body := fmt.Sprintf(`{"pad":%q,"u":0,"v":1}`, pad)
	status, e := postRaw(t, ts.URL+"/dist", []byte(body))
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413 (error %+v)", status, e)
	}
	if e.Code != "too_large" {
		t.Fatalf("code %q, want too_large", e.Code)
	}
}

// slowEngine wraps a real engine and sleeps before every Dist call,
// simulating an expensive g_φ evaluation. firstDist is closed when the
// first evaluation begins so tests can cancel mid-query; calls counts
// evaluations so tests can prove the query aborted early.
type slowEngine struct {
	inner     core.GPhi
	delay     time.Duration
	firstDist chan struct{}
	once      sync.Once
	calls     atomic.Int64
}

func (s *slowEngine) Name() string           { return "Slow" }
func (s *slowEngine) Reset(Q []graph.NodeID) { s.inner.Reset(Q) }

func (s *slowEngine) Dist(p graph.NodeID, k int, agg core.Aggregate) (float64, bool) {
	s.once.Do(func() { close(s.firstDist) })
	s.calls.Add(1)
	time.Sleep(s.delay)
	return s.inner.Dist(p, k, agg)
}

func (s *slowEngine) Subset(p graph.NodeID, k int, dst []graph.NodeID) []graph.NodeID {
	return s.inner.Subset(p, k, dst)
}

// slowServer builds a server over a small connected graph with one pooled
// "Slow" engine and a query whose full GD scan takes about
// numP*delay — long enough that an early abort is unambiguous.
func slowServer(t *testing.T, opts Options, delay time.Duration) (*Server, *httptest.Server, *slowEngine, FANNRequest) {
	t.Helper()
	g, err := graph.Generate(graph.GenConfig{Nodes: 200, Seed: 11, Name: "slow"})
	if err != nil {
		t.Fatal(err)
	}
	eng := &slowEngine{inner: core.NewINE(g), delay: delay, firstDist: make(chan struct{})}
	srv, err := New(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	// The factory returns the one shared instance (tests issue a single
	// Slow request at a time), so call counts and pool stats observe
	// exactly this engine.
	if err := srv.AddEngine("Slow", func() core.GPhi { return eng }); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	req := FANNRequest{
		P:   make([]graph.NodeID, 0, 40),
		Q:   []graph.NodeID{5, 25, 125},
		Phi: 0.5, Algo: "gd", Engine: "Slow",
	}
	for i := 0; i < 40; i++ {
		req.P = append(req.P, graph.NodeID(i*5))
	}
	return srv, ts, eng, req
}

// waitIdle polls an engine's pool until one engine is idle (i.e. the
// handler finished and returned it) or the deadline passes.
func waitIdle(t *testing.T, srv *Server, engine string, deadline time.Duration) {
	t.Helper()
	stop := time.Now().Add(deadline)
	for time.Now().Before(stop) {
		if _, _, idle := srv.engines[engine].poolStats(engine); idle >= 1 {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	created, reused, idle := srv.engines[engine].poolStats(engine)
	t.Fatalf("engine never returned to pool (created=%d reused=%d idle=%d)", created, reused, idle)
}

// TestQueryTimeoutIs504 proves the server-side deadline aborts a slow
// query: with QueryTimeout far below the full scan cost the request
// answers 504 "timeout" quickly, the engine goes back to the pool, and the
// scan provably stopped early.
func TestQueryTimeoutIs504(t *testing.T) {
	const delay = 10 * time.Millisecond
	srv, ts, eng, req := slowServer(t, Options{QueryTimeout: 3 * delay}, delay)
	raw, _ := json.Marshal(req)
	start := time.Now()
	status, e := postRaw(t, ts.URL+"/fann", raw)
	elapsed := time.Since(start)
	if status != http.StatusGatewayTimeout || e.Code != "timeout" {
		t.Fatalf("status %d code %q, want 504 timeout (error %q)", status, e.Code, e.Error)
	}
	full := time.Duration(len(req.P)) * delay
	if elapsed > full/2 {
		t.Fatalf("timeout answered after %v; full scan is %v — deadline did not abort the scan", elapsed, full)
	}
	if calls := eng.calls.Load(); calls >= int64(len(req.P)) {
		t.Fatalf("engine evaluated all %d points despite the deadline", calls)
	}
	waitIdle(t, srv, "Slow", 2*time.Second)
}

// TestClientDisconnectAbortsQuery is the acceptance test for request
// cancellation: an in-flight /fann whose client disconnects must abort
// within the polling granularity (one engine evaluation), return its
// engine to the pool, and leave no goroutine behind. Run under -race.
func TestClientDisconnectAbortsQuery(t *testing.T) {
	const delay = 10 * time.Millisecond
	srv, ts, eng, req := slowServer(t, Options{}, delay)
	raw, _ := json.Marshal(req)

	// Warm up the HTTP client plumbing so the goroutine baseline is stable.
	status, _ := postRaw(t, ts.URL+"/dist", []byte(`{"u":0,"v":1}`))
	if status != http.StatusOK {
		t.Fatalf("warmup /dist: status %d", status)
	}
	baseline := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/fann", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	httpReq.Header.Set("Content-Type", "application/json")

	done := make(chan error, 1)
	go func() {
		resp, err := ts.Client().Do(httpReq)
		if err == nil {
			resp.Body.Close()
			err = fmt.Errorf("request completed with status %d, want cancellation", resp.StatusCode)
		}
		done <- err
	}()

	// Disconnect as soon as the query provably entered the engine loop.
	select {
	case <-eng.firstDist:
	case <-time.After(5 * time.Second):
		t.Fatal("query never reached the engine")
	}
	start := time.Now()
	cancel()
	if err := <-done; err == nil {
		t.Fatal("client call did not observe the disconnect")
	}

	// The handler must notice at its next loop boundary and put the engine
	// back; a full scan would take len(P)*delay = 400ms.
	waitIdle(t, srv, "Slow", 2*time.Second)
	aborted := time.Since(start)
	full := time.Duration(len(req.P)) * delay
	if aborted > full/2 {
		t.Fatalf("engine returned after %v; full scan is %v — disconnect did not abort", aborted, full)
	}
	if calls := eng.calls.Load(); calls >= int64(len(req.P)) {
		t.Fatalf("engine evaluated all %d points despite the disconnect", calls)
	}

	// No goroutine leak: the handler goroutine and the dead connection's
	// goroutines must drain back to (about) the warmup baseline.
	ts.Client().CloseIdleConnections()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines %d, baseline %d — leak after cancelled request", runtime.NumGoroutine(), baseline)
}

// panicEngine blows up on first evaluation; later instances come from
// fresh factories and behave.
type panicEngine struct{ core.GPhi }

func (p *panicEngine) Dist(graph.NodeID, int, core.Aggregate) (float64, bool) {
	panic("engine corrupted")
}

// TestPanicDropsEngine pins the drop-on-panic contract: a panicking
// handler answers 500 "internal" (connection intact), the checked-out
// engine is NOT returned to the free list, and the next request gets a
// freshly built engine and succeeds.
func TestPanicDropsEngine(t *testing.T) {
	g, err := graph.Generate(graph.GenConfig{Nodes: 100, Seed: 7, Name: "boom"})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var builds atomic.Int64
	if err := srv.AddEngine("Fragile", func() core.GPhi {
		if builds.Add(1) == 1 {
			return &panicEngine{core.NewINE(g)}
		}
		return core.NewINE(g)
	}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	body := []byte(`{"p":[1,2,3],"q":[4,5],"phi":0.5,"engine":"Fragile"}`)

	status, e := postRaw(t, ts.URL+"/fann", body)
	if status != http.StatusInternalServerError || e.Code != "internal" {
		t.Fatalf("panicking engine: status %d code %q, want 500 internal", status, e.Code)
	}
	if _, _, idle := srv.engines["Fragile"].poolStats("Fragile"); idle != 0 {
		t.Fatalf("panicked engine returned to pool (idle=%d)", idle)
	}

	status, e = postRaw(t, ts.URL+"/fann", body)
	if status != http.StatusOK {
		t.Fatalf("request after panic: status %d (error %+v)", status, e)
	}
	if got := builds.Load(); got != 2 {
		t.Fatalf("factory built %d engines, want 2 (replacement after drop)", got)
	}
	if _, _, idle := srv.engines["Fragile"].poolStats("Fragile"); idle != 1 {
		t.Fatalf("healthy engine not pooled (idle=%d)", idle)
	}
}

// fuzzTS lazily builds one shared server for the HTTP fuzz targets.
var (
	fuzzOnce sync.Once
	fuzzURL  string
)

func fuzzServer(f *testing.F) string {
	f.Helper()
	fuzzOnce.Do(func() {
		g, err := graph.Generate(graph.GenConfig{Nodes: 120, Seed: 19, Name: "fuzz"})
		if err != nil {
			f.Fatal(err)
		}
		srv, err := New(g, Options{QueryTimeout: 2 * time.Second})
		if err != nil {
			f.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		// Shared across targets and iterations; freed at process exit.
		fuzzURL = ts.URL
	})
	if fuzzURL == "" {
		f.Skip("fuzz server failed to start")
	}
	return fuzzURL
}

// checkFuzzResponse asserts the contract every response must satisfy no
// matter how hostile the body: a known status, and on failure the stable
// {error, code} JSON shape with the matching code. A 500 means a
// malformed request leaked into the "internal" class — a taxonomy bug.
func checkFuzzResponse(t *testing.T, url string, body []byte) {
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("transport error: %v", err)
	}
	defer resp.Body.Close()
	wantCode := map[int]string{
		http.StatusBadRequest:            "invalid",
		http.StatusNotFound:              "not_found",
		http.StatusRequestEntityTooLarge: "too_large",
		http.StatusGatewayTimeout:        "timeout",
	}
	switch resp.StatusCode {
	case http.StatusOK:
		return
	case http.StatusBadRequest, http.StatusNotFound,
		http.StatusRequestEntityTooLarge, http.StatusGatewayTimeout:
		var e ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatalf("status %d: error body is not the stable JSON shape: %v", resp.StatusCode, err)
		}
		if e.Code != wantCode[resp.StatusCode] || e.Error == "" {
			t.Fatalf("status %d: error %+v, want code %q and a message", resp.StatusCode, e, wantCode[resp.StatusCode])
		}
	default:
		t.Fatalf("status %d on fuzzed input %q — malformed requests must map to 4xx/504", resp.StatusCode, body)
	}
}

// FuzzFANNEndpoint throws arbitrary bytes at POST /fann.
func FuzzFANNEndpoint(f *testing.F) {
	url := fuzzServer(f) + "/fann"
	f.Add([]byte(`{"p":[1,2,3],"q":[4,5],"phi":0.5}`))
	f.Add([]byte(`{"p":[1,2,3],"q":[4,5],"phi":0.5,"agg":"sum","algo":"rlist","k":2}`))
	f.Add([]byte(`{"p":[1,1,1],"q":[4,4],"phi":1,"algo":"exactmax"}`))
	f.Add([]byte(`{"p":[9e99],"q":[-1],"phi":2}`))
	f.Add([]byte(`{"p":[1,2`))
	f.Add([]byte(`null`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, body []byte) {
		checkFuzzResponse(t, url, body)
	})
}

// FuzzDistEndpoint throws arbitrary bytes at POST /dist.
func FuzzDistEndpoint(f *testing.F) {
	url := fuzzServer(f) + "/dist"
	f.Add([]byte(`{"u":0,"v":5}`))
	f.Add([]byte(`{"u":-1,"v":1e30}`))
	f.Add([]byte(`{"u":`))
	f.Add([]byte(`[]`))
	f.Fuzz(func(t *testing.T, body []byte) {
		checkFuzzResponse(t, url, body)
	})
}
