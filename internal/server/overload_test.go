package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fannr/internal/core"
	"fannr/internal/graph"
	"fannr/internal/obs"
	"fannr/internal/resil"
)

// postResp posts a body and returns the raw response with its decoded
// JSON body left to the caller.
func postResp(t *testing.T, url string, body []byte) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// throttledINE wraps INE with a fixed per-evaluation delay so requests
// occupy their engine long enough for saturation to be deterministic.
type throttledINE struct {
	core.GPhi
	delay time.Duration
}

func (e *throttledINE) Dist(p graph.NodeID, k int, agg core.Aggregate) (float64, bool) {
	time.Sleep(e.delay)
	return e.GPhi.Dist(p, k, agg)
}

// TestOverloadHammer is the load-shedding acceptance test: a hammer at
// 4x (cap + queue) concurrency against a MaxInFlight=2/QueueDepth=2
// server must (1) never build more than MaxInFlight engines, (2) answer
// every admitted request correctly (Brute-verified), (3) shed the rest
// with 503 "overloaded" + Retry-After, and (4) leak no goroutine. Run
// under -race.
func TestOverloadHammer(t *testing.T) {
	g, err := graph.Generate(graph.GenConfig{Nodes: 300, Seed: 21, Name: "ovl"})
	if err != nil {
		t.Fatal(err)
	}
	const (
		maxInFlight = 2
		queueDepth  = 2
		delay       = 2 * time.Millisecond
	)
	srv, err := New(g, Options{
		MaxInFlight:  maxInFlight,
		QueueDepth:   queueDepth,
		QueryTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	var builds atomic.Int64
	if err := srv.AddEngine("Slow", func() core.GPhi {
		builds.Add(1)
		return &throttledINE{GPhi: core.NewINE(g), delay: delay}
	}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// One fixed query, Brute-verified up front.
	q := core.Query{Phi: 0.5, Agg: core.Max}
	for i := 0; i < 16; i++ {
		q.P = append(q.P, graph.NodeID(i*17))
	}
	q.Q = []graph.NodeID{3, 140, 250}
	want, err := core.Brute(g, q)
	if err != nil {
		t.Fatal(err)
	}
	req := FANNRequest{P: q.P, Q: q.Q, Phi: q.Phi, Agg: "max", Algo: "gd", Engine: "Slow"}
	raw, _ := json.Marshal(req)

	// Warm the client plumbing for a stable goroutine baseline.
	resp := postResp(t, ts.URL+"/dist", []byte(`{"u":0,"v":1}`))
	resp.Body.Close()
	baseline := runtime.NumGoroutine()

	const clients = 4 * (maxInFlight + queueDepth)
	var wg sync.WaitGroup
	var oks, sheds atomic.Int64
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := 0; it < 4; it++ {
				resp, err := http.Post(ts.URL+"/fann", "application/json", bytes.NewReader(raw))
				if err != nil {
					t.Errorf("transport error: %v", err)
					return
				}
				switch resp.StatusCode {
				case http.StatusOK:
					var fr FANNResponse
					if err := json.NewDecoder(resp.Body).Decode(&fr); err != nil {
						t.Errorf("decoding 200: %v", err)
					} else if len(fr.Answers) != 1 || math.Abs(fr.Answers[0].Dist-want.Dist) > 1e-9 {
						t.Errorf("admitted answer %+v, want dist %v", fr.Answers, want.Dist)
					} else if fr.Degraded || fr.Engine != "Slow" {
						t.Errorf("no breaker configured, yet engine=%q degraded=%v", fr.Engine, fr.Degraded)
					}
					oks.Add(1)
				case http.StatusServiceUnavailable:
					var e ErrorResponse
					if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Code != "overloaded" {
						t.Errorf("503 body %+v (decode err %v), want code overloaded", e, err)
					}
					if ra := resp.Header.Get("Retry-After"); ra != "1" {
						t.Errorf("Retry-After %q, want \"1\"", ra)
					}
					sheds.Add(1)
				default:
					t.Errorf("status %d, want 200 or 503", resp.StatusCode)
				}
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()

	if oks.Load() == 0 {
		t.Fatal("hammer produced no successful answers")
	}
	if sheds.Load() == 0 {
		t.Fatal("hammer at 4x capacity never shed — admission control is not bounding")
	}
	if got := builds.Load(); got > maxInFlight {
		t.Fatalf("factory built %d engines, want <= max-inflight %d", got, maxInFlight)
	}

	// The shed gauge is visible on /meta.
	resp, err = http.Get(ts.URL + "/meta")
	if err != nil {
		t.Fatal(err)
	}
	var meta struct {
		Pools map[string]struct {
			Shed     int64 `json:"shed"`
			Inflight int64 `json:"inflight"`
		} `json:"pools"`
		Limits struct {
			MaxInflight int `json:"max_inflight"`
		} `json:"limits"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&meta); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if meta.Pools["Slow"].Shed != sheds.Load() {
		t.Fatalf("/meta shed=%d, clients saw %d", meta.Pools["Slow"].Shed, sheds.Load())
	}
	if meta.Pools["Slow"].Inflight != 0 {
		t.Fatalf("/meta inflight=%d after drain, want 0", meta.Pools["Slow"].Inflight)
	}
	if meta.Limits.MaxInflight != maxInFlight {
		t.Fatalf("/meta max_inflight=%d, want %d", meta.Limits.MaxInflight, maxInFlight)
	}

	// No goroutine leak once the connections wind down.
	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines %d, baseline %d — leak after the hammer", runtime.NumGoroutine(), baseline)
}

// getJSON fetches a GET endpoint, returning status and decoded body.
func getJSON(t *testing.T, url string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]any
	_ = json.NewDecoder(resp.Body).Decode(&body)
	return resp.StatusCode, body
}

// TestDrainFlipsHealthEndpoints pins the liveness/readiness split: all
// of /health (legacy), /healthz and /readyz answer 200 while serving and
// 503 once BeginDrain is called — so a load balancer stops routing to a
// draining server instead of being lied to.
func TestDrainFlipsHealthEndpoints(t *testing.T) {
	g, err := graph.Generate(graph.GenConfig{Nodes: 60, Seed: 23, Name: "drain"})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, ep := range []string{"/health", "/healthz", "/readyz"} {
		if status, _ := getJSON(t, ts.URL+ep); status != http.StatusOK {
			t.Fatalf("%s status %d before drain, want 200", ep, status)
		}
	}
	srv.BeginDrain()
	if !srv.Draining() {
		t.Fatal("Draining() false after BeginDrain")
	}
	for _, ep := range []string{"/health", "/healthz", "/readyz"} {
		status, body := getJSON(t, ts.URL+ep)
		if status != http.StatusServiceUnavailable {
			t.Fatalf("%s status %d during drain, want 503", ep, status)
		}
		if body["status"] != "draining" {
			t.Fatalf("%s body %v, want status draining", ep, body)
		}
	}
	// Queries still complete during drain — only health flips.
	status, _ := getJSON(t, ts.URL+"/meta")
	if status != http.StatusOK {
		t.Fatalf("/meta status %d during drain", status)
	}
	resp := postResp(t, ts.URL+"/fann", []byte(`{"p":[1,2],"q":[3,4],"phi":0.5}`))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/fann status %d during drain, want 200 (in-flight work must finish)", resp.StatusCode)
	}
}

// TestChaosBreakerFallbackRecovery is the chaos acceptance test: with a
// fault injector panicking the primary engine, the breaker opens within
// BreakerThreshold failures, /fann transparently serves correct degraded
// answers from the fallback engine, /readyz reports the open breaker,
// and once injection stops the half-open probe recovers the primary.
// Run under -race.
func TestChaosBreakerFallbackRecovery(t *testing.T) {
	g, err := graph.Generate(graph.GenConfig{Nodes: 200, Seed: 29, Name: "chaos"})
	if err != nil {
		t.Fatal(err)
	}
	const (
		threshold = 3
		cooldown  = 100 * time.Millisecond
	)
	srv, err := New(g, Options{
		BreakerThreshold: threshold,
		BreakerCooldown:  cooldown,
	})
	if err != nil {
		t.Fatal(err)
	}
	injector := resil.NewInjector(resil.ChaosConfig{Seed: 1, PanicProb: 1})
	if err := srv.AddEngine("Chaos", func() core.GPhi {
		return injector.Wrap(core.NewINE(g))
	}); err != nil {
		t.Fatal(err)
	}
	if err := srv.SetFallback(map[string]string{"Chaos": "INE"}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	q := core.Query{P: []graph.NodeID{10, 60, 110, 160}, Q: []graph.NodeID{5, 95, 185}, Phi: 0.5, Agg: core.Max}
	want, err := core.Brute(g, q)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := json.Marshal(FANNRequest{P: q.P, Q: q.Q, Phi: q.Phi, Algo: "gd", Engine: "Chaos"})

	fann := func() (int, FANNResponse, ErrorResponse) {
		t.Helper()
		resp := postResp(t, ts.URL+"/fann", raw)
		defer resp.Body.Close()
		var fr FANNResponse
		var er ErrorResponse
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&fr); err != nil {
				t.Fatal(err)
			}
		} else {
			_ = json.NewDecoder(resp.Body).Decode(&er)
		}
		return resp.StatusCode, fr, er
	}
	checkAnswer := func(fr FANNResponse) {
		t.Helper()
		if len(fr.Answers) != 1 || math.Abs(fr.Answers[0].Dist-want.Dist) > 1e-9 {
			t.Fatalf("answers %+v, want dist %v", fr.Answers, want.Dist)
		}
	}

	// Phase 1 — injection armed: exactly threshold panics open the breaker.
	injector.Arm()
	for i := 0; i < threshold; i++ {
		status, _, er := fann()
		if status != http.StatusInternalServerError || er.Code != "internal" {
			t.Fatalf("chaos request %d: status %d code %q, want 500 internal", i, status, er.Code)
		}
	}
	status, body := getJSON(t, ts.URL+"/readyz")
	if status != http.StatusServiceUnavailable || body["status"] != "degraded" {
		t.Fatalf("/readyz after %d panics: status %d body %v, want 503 degraded", threshold, status, body)
	}
	breakers, _ := body["breakers"].(map[string]any)
	if breakers["Chaos"] != "open" {
		t.Fatalf("/readyz breakers %v, want Chaos open", breakers)
	}
	// The same trip is visible on /metrics: state gauge at 2 (open) and
	// at least one recorded trip.
	sc := scrapeMetrics(t, ts.URL)
	if v, ok := sc.Value("fannr_breaker_state", obs.L("engine", "Chaos")); !ok || v != 2 {
		t.Fatalf("fannr_breaker_state{engine=Chaos} = %v (ok=%v), want 2 (open)", v, ok)
	}
	if v, ok := sc.Value("fannr_breaker_trips_total", obs.L("engine", "Chaos")); !ok || v < 1 {
		t.Fatalf("fannr_breaker_trips_total{engine=Chaos} = %v (ok=%v), want >= 1", v, ok)
	}

	// Phase 2 — breaker open: requests transparently fall back and the
	// degraded answers are still correct.
	for i := 0; i < 3; i++ {
		status, fr, er := fann()
		if status != http.StatusOK {
			t.Fatalf("fallback request: status %d (%+v)", status, er)
		}
		if !fr.Degraded || fr.Engine != "INE" {
			t.Fatalf("fallback response engine=%q degraded=%v, want INE degraded", fr.Engine, fr.Degraded)
		}
		checkAnswer(fr)
	}

	// Phase 3 — injection stops, cooldown elapses: the half-open probe
	// lands on the primary, succeeds, and closes the breaker.
	injector.Disarm()
	time.Sleep(cooldown + 20*time.Millisecond)
	status, fr, er := fann()
	if status != http.StatusOK {
		t.Fatalf("probe request: status %d (%+v)", status, er)
	}
	if fr.Degraded || fr.Engine != "Chaos" {
		t.Fatalf("probe response engine=%q degraded=%v, want Chaos non-degraded", fr.Engine, fr.Degraded)
	}
	checkAnswer(fr)
	if status, body := getJSON(t, ts.URL+"/readyz"); status != http.StatusOK || body["status"] != "ready" {
		t.Fatalf("/readyz after recovery: status %d body %v, want 200 ready", status, body)
	}
	sc = scrapeMetrics(t, ts.URL)
	if v, _ := sc.Value("fannr_breaker_state", obs.L("engine", "Chaos")); v != 0 {
		t.Fatalf("fannr_breaker_state{engine=Chaos} = %v after recovery, want 0 (closed)", v)
	}
	// Steady state: the recovered primary keeps serving non-degraded.
	status, fr, _ = fann()
	if status != http.StatusOK || fr.Engine != "Chaos" || fr.Degraded {
		t.Fatalf("post-recovery request: status %d engine %q degraded %v", status, fr.Engine, fr.Degraded)
	}
}

// modalINE switches Dist behavior at runtime: pass-through, panicking,
// or sleeping per evaluation — enough to walk a breaker through open,
// a timed-out probe, and recovery deterministically.
type modalINE struct {
	core.GPhi
	mode  *atomic.Int32 // 0 = pass through, 1 = panic, 2 = sleep delay per call
	delay time.Duration
}

func (e *modalINE) Dist(p graph.NodeID, k int, agg core.Aggregate) (float64, bool) {
	switch e.mode.Load() {
	case 1:
		panic("modal: injected failure")
	case 2:
		time.Sleep(e.delay)
	}
	return e.GPhi.Dist(p, k, agg)
}

// TestHalfOpenProbeDropReopens is the breaker-wedge regression test: a
// half-open probe that ends without a verdict of its own (here, a 504
// query timeout — but shed and canceled probes share the path) must
// re-open the breaker with a fresh cooldown, not leave it half-open
// forever. A wedged half-open breaker admits nobody, so the engine
// would never be probed again and could never recover — precisely when
// it is merely slow rather than broken.
func TestHalfOpenProbeDropReopens(t *testing.T) {
	g, err := graph.Generate(graph.GenConfig{Nodes: 120, Seed: 37, Name: "probe"})
	if err != nil {
		t.Fatal(err)
	}
	const cooldown = 80 * time.Millisecond
	srv, err := New(g, Options{
		BreakerThreshold: 1,
		BreakerCooldown:  cooldown,
		QueryTimeout:     40 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	var mode atomic.Int32
	if err := srv.AddEngine("Flaky", func() core.GPhi {
		return &modalINE{GPhi: core.NewINE(g), mode: &mode, delay: 25 * time.Millisecond}
	}); err != nil {
		t.Fatal(err)
	}
	if err := srv.SetFallback(map[string]string{"Flaky": "INE"}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	raw := []byte(`{"p":[1,20,40,60,80,100],"q":[5,55,105],"phi":0.5,"engine":"Flaky"}`)
	fann := func() (int, FANNResponse) {
		t.Helper()
		resp := postResp(t, ts.URL+"/fann", raw)
		defer resp.Body.Close()
		var fr FANNResponse
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&fr); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode, fr
	}

	// One panic opens the threshold-1 breaker.
	mode.Store(1)
	if status, _ := fann(); status != http.StatusInternalServerError {
		t.Fatalf("panic request: status %d, want 500", status)
	}
	if st := srv.breakers["Flaky"].State(); st != resil.Open {
		t.Fatalf("breaker %v after panic, want open", st)
	}

	// Cooldown elapses; the probe lands on an engine that is now merely
	// slow and times out (504) — an outcome the breaker switch records
	// nothing for.
	mode.Store(2)
	time.Sleep(cooldown + 20*time.Millisecond)
	if status, _ := fann(); status != http.StatusGatewayTimeout {
		t.Fatalf("slow probe: status %d, want 504", status)
	}
	// The dropped probe must have re-opened the breaker, not wedged it
	// half-open (where it would reject every future probe forever).
	if st := srv.breakers["Flaky"].State(); st != resil.Open {
		t.Fatalf("breaker %v after dropped probe, want open (re-armed for the next probe)", st)
	}

	// The engine heals; the next cooldown's probe must be admitted and
	// recover the primary. Under the wedge bug this request would be
	// served degraded from INE instead.
	mode.Store(0)
	time.Sleep(cooldown + 20*time.Millisecond)
	status, fr := fann()
	if status != http.StatusOK {
		t.Fatalf("recovery probe: status %d, want 200", status)
	}
	if fr.Engine != "Flaky" || fr.Degraded {
		t.Fatalf("recovery probe served engine=%q degraded=%v, want Flaky non-degraded", fr.Engine, fr.Degraded)
	}
	if st := srv.breakers["Flaky"].State(); st != resil.Closed {
		t.Fatalf("breaker %v after successful probe, want closed", st)
	}
}

// halfOpenFlaky serves an engine "Flaky" that panics on every
// evaluation behind a breaker that one failure opens, trips it and waits
// out the cooldown: the next request admitted to Flaky is the half-open
// probe.
func halfOpenFlaky(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	g, err := graph.Generate(graph.GenConfig{Nodes: 120, Seed: 37, Name: "probe"})
	if err != nil {
		t.Fatal(err)
	}
	const cooldown = 40 * time.Millisecond
	srv, err := New(g, Options{BreakerThreshold: 1, BreakerCooldown: cooldown})
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
	t.Cleanup(ts.Close)
	if status, e := postRaw(t, ts.URL+"/fann", []byte(`{"p":[1,20,40],"q":[5,55],"phi":0.5,"engine":"Flaky"}`)); status != http.StatusInternalServerError {
		t.Fatalf("panic request: status %d (%+v), want 500", status, e)
	}
	time.Sleep(cooldown + 20*time.Millisecond)
	return srv, ts
}

// TestHalfOpenProbeUnknownAlgoKeepsBreakerOpen is the regression test
// for an invalid request closing a breaker: the request is normalised —
// its algorithm checked — before routing, so a body naming an unknown
// algorithm answers 400 without being admitted as the half-open probe,
// and an engine that still panics on every evaluation stays out of
// rotation.
func TestHalfOpenProbeUnknownAlgoKeepsBreakerOpen(t *testing.T) {
	srv, ts := halfOpenFlaky(t)
	status, e := postRaw(t, ts.URL+"/fann", []byte(`{"p":[1,20,40],"q":[5,55],"phi":0.5,"engine":"Flaky","algo":"psychic"}`))
	if status != http.StatusBadRequest || e.Code != "invalid" {
		t.Fatalf("invalid probe: status %d code %q, want 400 invalid", status, e.Code)
	}
	if st := srv.breakers["Flaky"].State(); st == resil.Closed {
		t.Fatal("an invalid request closed the breaker of an engine that still panics")
	}
}

// TestHalfOpenProbeUnsupportedAggKeepsBreakerOpen: an algorithm asked
// for an aggregate it does not answer (Exact-max over the sum) is just
// as invalid whatever the engine, so it too is turned away before
// routing and cannot close the breaker as the half-open probe.
func TestHalfOpenProbeUnsupportedAggKeepsBreakerOpen(t *testing.T) {
	srv, ts := halfOpenFlaky(t)
	status, e := postRaw(t, ts.URL+"/fann", []byte(`{"p":[1,20,40],"q":[5,55],"phi":0.5,"engine":"Flaky","algo":"exactmax","agg":"sum"}`))
	if status != http.StatusBadRequest || e.Code != "invalid" {
		t.Fatalf("exactmax+sum probe: status %d code %q, want 400 invalid", status, e.Code)
	}
	if st := srv.breakers["Flaky"].State(); st == resil.Closed {
		t.Fatal("an exactmax+sum request closed the breaker of an engine that still panics")
	}
}

// TestDistAdmissionSheds pins that /dist sits behind the same bounded
// admission as /fann: with its gate saturated the endpoint sheds with
// 503 "overloaded" + Retry-After instead of allocating another O(|V|)
// Dijkstra, and the shed shows up on /meta.
func TestDistAdmissionSheds(t *testing.T) {
	g, err := graph.Generate(graph.GenConfig{Nodes: 80, Seed: 41, Name: "distadm"})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(g, Options{MaxInFlight: 1, QueueDepth: 0})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Occupy the single /dist slot, as a stuck in-flight request would.
	if err := srv.distGate.Acquire(t.Context()); err != nil {
		t.Fatal(err)
	}
	resp := postResp(t, ts.URL+"/dist", []byte(`{"u":0,"v":1}`))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated /dist: status %d, want 503", resp.StatusCode)
	}
	var e ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Code != "overloaded" {
		t.Fatalf("503 body %+v (err %v), want code overloaded", e, err)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After %q, want \"1\"", ra)
	}
	resp.Body.Close()

	srv.distGate.Release()
	resp = postResp(t, ts.URL+"/dist", []byte(`{"u":0,"v":1}`))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/dist after release: status %d, want 200", resp.StatusCode)
	}

	status, meta := getJSON(t, ts.URL+"/meta")
	if status != http.StatusOK {
		t.Fatalf("/meta status %d", status)
	}
	dist, _ := meta["dist"].(map[string]any)
	if dist["shed"] != float64(1) || dist["inflight"] != float64(0) {
		t.Fatalf("/meta dist gauges %v, want shed=1 inflight=0", dist)
	}
}

// TestLadderExhaustedSheds pins the end of the ladder: when the
// requested engine's breaker is open and it has no fallback (or the
// chain dead-ends), the server sheds with 503 + Retry-After rather than
// serving from a tripped engine.
func TestLadderExhaustedSheds(t *testing.T) {
	g, err := graph.Generate(graph.GenConfig{Nodes: 80, Seed: 31, Name: "ladder"})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(g, Options{BreakerThreshold: 1, BreakerCooldown: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	injector := resil.NewInjector(resil.ChaosConfig{Seed: 2, ErrProb: 1})
	if err := srv.AddEngine("Chaos", func() core.GPhi {
		return injector.Wrap(core.NewINE(g))
	}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	raw := []byte(`{"p":[1,2,3],"q":[4,5],"phi":0.5,"engine":"Chaos"}`)
	injector.Arm()
	resp := postResp(t, ts.URL+"/fann", raw)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("first chaos request: status %d, want 500", resp.StatusCode)
	}

	resp = postResp(t, ts.URL+"/fann", raw)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("open breaker with no fallback: status %d, want 503", resp.StatusCode)
	}
	var e ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Code != "overloaded" {
		t.Fatalf("503 body %+v (err %v), want code overloaded", e, err)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	// Other engines are untouched by Chaos's breaker.
	resp2 := postResp(t, ts.URL+"/fann", []byte(`{"p":[1,2,3],"q":[4,5],"phi":0.5}`))
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("INE request while Chaos broken: status %d, want 200", resp2.StatusCode)
	}
}
