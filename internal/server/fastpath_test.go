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
	"fannr/internal/obs"
)

// serve runs one request through h on the caller's goroutine.
func serve(h http.Handler, method, target, id, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, target, strings.NewReader(body))
	if id != "" {
		req.Header.Set("X-Request-ID", id)
	}
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	return rr
}

// Once the slow set is full, a fast ok request costs the slow log one
// atomic load and is not retained; a fast error and a fast degraded
// answer still are, each with its trace.
func TestSlowLogKeepsOnlyWhatBeatsTheFloor(t *testing.T) {
	g, err := graph.Generate(graph.GenConfig{Nodes: 200, Seed: 9, Name: "floor"})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(g, Options{BreakerThreshold: 1, BreakerCooldown: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.AddEngine("Flaky", func() core.GPhi { return core.NewINE(g) }); err != nil {
		t.Fatal(err)
	}
	if err := srv.SetFallback(map[string]string{"Flaky": "INE"}); err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	for i := 0; i < slowLogEntries; i++ {
		srv.slow.Record(obs.SlowEntry{RequestID: "floor", DurMicros: 1 << 40}, false)
	}
	srv.breakers["Flaky"].Failure() // open: Flaky's requests are served by INE, degraded

	for _, tc := range []struct {
		id, body string
		status   int
		retained bool
	}{
		{"fast-ok", `{"p":[3,40,90],"q":[7,120],"phi":1,"engine":"INE"}`, http.StatusOK, false},
		{"fast-400", `{"p":[3,40,90],"q":[7,120],"phi":2,"engine":"INE"}`, http.StatusBadRequest, true},
		{"fast-degraded", `{"p":[3,40,90],"q":[7,120],"phi":1,"engine":"Flaky"}`, http.StatusOK, true},
	} {
		if rr := serve(h, http.MethodPost, "/fann", tc.id, tc.body); rr.Code != tc.status {
			t.Fatalf("%s: status %d, want %d: %s", tc.id, rr.Code, tc.status, rr.Body)
		}
		rr := serve(h, http.MethodGet, "/debug/slow?id="+tc.id, "", "")
		if !tc.retained {
			if rr.Code != http.StatusNotFound {
				t.Errorf("%s: /debug/slow answered %d, want 404: %s", tc.id, rr.Code, rr.Body)
			}
			continue
		}
		var e obs.SlowEntry
		if err := json.NewDecoder(rr.Body).Decode(&e); rr.Code != http.StatusOK || err != nil || e.Trace == nil {
			t.Errorf("%s: /debug/slow %d %+v (%v), want the entry with its trace", tc.id, rr.Code, e, err)
		}
	}
}

// -query-timeout is armed after the cache stage: it still ends a request
// that waits for admission behind a saturated pool with 504 timeout, and
// it never touches a cache hit, which answers 200 under a 1 ns deadline.
func TestQueryTimeoutSkipsCacheStage(t *testing.T) {
	t.Run("admission", func(t *testing.T) {
		// Each evaluation of the one engine sleeps far past the deadline,
		// so the first request holds it while the second waits in the queue.
		const delay, timeout = 400 * time.Millisecond, 40 * time.Millisecond
		srv, ts, eng, req := slowServer(t, Options{QueryTimeout: timeout, MaxInFlight: 1, QueueDepth: 1}, delay)
		raw, _ := json.Marshal(req)
		first := make(chan int, 1)
		go func() {
			status, _ := postRaw(t, ts.URL+"/fann", raw)
			first <- status
		}()
		select {
		case <-eng.firstDist:
		case <-time.After(5 * time.Second):
			t.Fatal("the first request never reached the engine")
		}
		start := time.Now()
		status, e := postRaw(t, ts.URL+"/fann", raw)
		if elapsed := time.Since(start); status != http.StatusGatewayTimeout || e.Code != "timeout" || elapsed >= delay {
			t.Fatalf("queued request: %d %q after %v, want 504 timeout before the engine frees at %v", status, e.Code, elapsed, delay)
		}
		if status := <-first; status != http.StatusGatewayTimeout {
			t.Fatalf("engine-holding request: status %d, want 504", status)
		}
		waitIdle(t, srv, "Slow", 2*time.Second)
	})
	t.Run("cache hit", func(t *testing.T) {
		g, err := graph.Generate(graph.GenConfig{Nodes: 200, Seed: 9, Name: "hit"})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := New(g, Options{CacheEntries: 64})
		if err != nil {
			t.Fatal(err)
		}
		h := srv.Handler()
		body := `{"p":[3,40,90],"q":[7,120],"phi":1,"engine":"INE"}`
		if rr := serve(h, http.MethodPost, "/fann", "", body); rr.Code != http.StatusOK {
			t.Fatalf("filling request: %d %s", rr.Code, rr.Body)
		}
		// Requests run on this goroutine, so the deadline can change between them.
		srv.queryTimeout = time.Nanosecond
		if rr := serve(h, http.MethodPost, "/fann", "", body); rr.Code != http.StatusOK {
			t.Fatalf("exact cache hit under a 1 ns deadline: %d %s", rr.Code, rr.Body)
		}
		rr := serve(h, http.MethodPost, "/fann", "", `{"p":[3,40,91],"q":[7,120],"phi":1,"engine":"INE"}`)
		if rr.Code != http.StatusGatewayTimeout {
			t.Fatalf("a miss under a 1 ns deadline: %d %s, want 504", rr.Code, rr.Body)
		}
	})
}
