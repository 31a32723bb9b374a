package shard

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"fannr/internal/core"
	"fannr/internal/graph"
	"fannr/internal/gtree"
	"fannr/internal/lifecycle"
	"fannr/internal/resil"
)

// postCoord posts a raw body to a coordinator handler and returns the
// status, the Retry-After header, and the decoded error shape.
func postCoord(t *testing.T, h http.Handler, body string) (int, string, ErrorResponse) {
	t.Helper()
	return postErr(t, h, "/fann", []byte(body))
}

func postErr(t *testing.T, h http.Handler, path string, body []byte) (int, string, ErrorResponse) {
	t.Helper()
	rr := httptest.NewRecorder()
	req := httptest.NewRequest("POST", path, bytes.NewReader(body))
	h.ServeHTTP(rr, req)
	var e ErrorResponse
	_ = json.NewDecoder(rr.Body).Decode(&e)
	return rr.Code, rr.Header().Get("Retry-After"), e
}

// TestCoordinatorErrorTaxonomy mirrors the single-process server's error
// suite through the scatter-gather front end: every failure class keeps
// the same {status, code} whether the query is served directly or
// coordinated. Runs over a disconnected two-component graph so 404s are
// producible alongside the 400s.
func TestCoordinatorErrorTaxonomy(t *testing.T) {
	b := graph.NewBuilder(6)
	_ = b.AddEdge(0, 1, 1)
	_ = b.AddEdge(1, 2, 1)
	_ = b.AddEdge(3, 4, 1)
	_ = b.AddEdge(4, 5, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	tree, err := gtree.Build(g, gtree.Options{MaxLeafSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := NewPlan(g, tree, PlanOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	transports := make([]Transport, 2)
	for s := 0; s < 2; s++ {
		h := NewHost(s, g, HostOptions{})
		if err := h.AddEngine("INE", func() core.GPhi { return core.NewINE(g) }); err != nil {
			t.Fatal(err)
		}
		transports[s] = InProc{Host: h}
	}
	coord, err := NewCoordinator(plan, transports, CoordinatorOptions{
		Retry: &resil.RetryPolicy{Attempts: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	h := coord.Handler()

	// A well-formed query padded to one byte over the body limit: only
	// its size is wrong.
	const head = `{"p":[0,2],"q":[1,2],"phi":1,"pad":"`
	oversized := head + strings.Repeat("x", maxFramePayload+1-len(head)-2) + `"}`

	cases := []struct {
		name   string
		body   string
		status int
		code   string
	}{
		{"body over 16 MiB", oversized, http.StatusRequestEntityTooLarge, "too_large"},
		{"malformed json", `{"p":[1,2`, http.StatusBadRequest, "invalid"},
		{"wrong field type", `{"p":"not-a-list"}`, http.StatusBadRequest, "invalid"},
		{"empty P", `{"p":[],"q":[0,1],"phi":0.5}`, http.StatusBadRequest, "invalid"},
		{"empty Q", `{"p":[0],"q":[],"phi":0.5}`, http.StatusBadRequest, "invalid"},
		{"phi zero", `{"p":[0],"q":[1],"phi":0}`, http.StatusBadRequest, "invalid"},
		{"phi above one", `{"p":[0],"q":[1],"phi":1.5}`, http.StatusBadRequest, "invalid"},
		{"node out of range", `{"p":[0,1073741824],"q":[1],"phi":0.5}`, http.StatusBadRequest, "invalid"},
		{"unknown aggregate", `{"p":[0],"q":[1],"phi":0.5,"agg":"median"}`, http.StatusBadRequest, "invalid"},
		{"unknown algorithm", `{"p":[0],"q":[1],"phi":0.5,"algo":"psychic"}`, http.StatusBadRequest, "invalid"},
		{"unknown engine relayed from shard", `{"p":[0],"q":[1],"phi":0.5,"engine":"warp"}`, http.StatusBadRequest, "invalid"},
		{"unreachable phi-subset", `{"p":[0],"q":[3,4,5],"phi":1}`, http.StatusNotFound, "not_found"},
		{"unreachable across components", `{"p":[0,1],"q":[5],"phi":1,"algo":"rlist"}`, http.StatusNotFound, "not_found"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, _, e := postCoord(t, h, tc.body)
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

	// Control: the same coordinator still answers a valid query, and the
	// answers field is a list even when empty elsewhere.
	rr := httptest.NewRecorder()
	rr2 := httptest.NewRequest("POST", "/fann", strings.NewReader(`{"p":[0,2],"q":[1,2],"phi":1}`))
	h.ServeHTTP(rr, rr2)
	if rr.Code != http.StatusOK {
		t.Fatalf("control query: status %d body %s", rr.Code, rr.Body.String())
	}
	if !strings.Contains(rr.Body.String(), `"answers":[`) {
		t.Fatalf("answers not a list: %s", rr.Body.String())
	}
}

// TestHostHandlerErrorTaxonomy is the framed-request counterpart: a shard
// host reached directly answers a bad frame with the same {status, code}
// body the coordinator and the single-process server would.
func TestHostHandlerErrorTaxonomy(t *testing.T) {
	g, _ := testGraph(t, 260, 21)
	host := NewHost(0, g, HostOptions{})
	if err := host.AddEngine("INE", func() core.GPhi { return core.NewINE(g) }); err != nil {
		t.Fatal(err)
	}
	frame := func(req *Request) []byte {
		b, err := EncodeRequest(req)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	valid := frame(&Request{P: []graph.NodeID{1, 2}, Q: []graph.NodeID{5}, Phi: 1})
	cases := []struct {
		name   string
		body   []byte
		status int
		code   string
	}{
		{"frame over 16 MiB", make([]byte, maxFramePayload+frameHeader+frameTrailer+1), http.StatusRequestEntityTooLarge, "too_large"},
		{"torn frame", valid[:len(valid)-3], http.StatusBadRequest, "invalid"},
		{"unknown engine", frame(&Request{P: []graph.NodeID{1}, Q: []graph.NodeID{5}, Phi: 1, Engine: "warp"}), http.StatusBadRequest, "invalid"},
	}
	h := host.Handler()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, _, e := postErr(t, h, "/shard/fann", tc.body)
			if status != tc.status || e.Code != tc.code || e.Error == "" {
				t.Fatalf("got %d %q (error %q), want %d %q", status, e.Code, e.Error, tc.status, tc.code)
			}
		})
	}
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("POST", "/shard/fann", bytes.NewReader(valid)))
	if rr.Code != http.StatusOK {
		t.Fatalf("control frame: status %d body %s", rr.Code, rr.Body.String())
	}
}

// A shard shedding load (503 + Retry-After) must leave the coordinator
// as a 503 with the same taxonomy code and a Retry-After header — never
// flattened into a generic 500. This was the satellite-fix contract.
func TestCoordinatorRelaysShardSheds(t *testing.T) {
	const nodes = 260
	for _, tc := range []struct {
		name     string
		checkErr error
		code     string
	}{
		{"quarantined holder", lifecycle.ErrUnavailable, "overloaded"},
		{"index fault", &lifecycle.IndexFault{Index: "phl", Addr: 0xdead, Cause: "SIGBUS"}, "index_fault"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, tree := testGraph(t, nodes, 21)
			plan, err := NewPlan(g, tree, PlanOptions{Shards: 2})
			if err != nil {
				t.Fatal(err)
			}
			transports := make([]Transport, 2)
			for s := 0; s < 2; s++ {
				h := NewHost(s, g, HostOptions{
					Check: func() error { return tc.checkErr },
				})
				if err := h.AddEngine("INE", func() core.GPhi { return core.NewINE(g) }); err != nil {
					t.Fatal(err)
				}
				transports[s] = InProc{Host: h}
			}
			coord, err := NewCoordinator(plan, transports, CoordinatorOptions{
				Retry: &resil.RetryPolicy{Attempts: 1},
			})
			if err != nil {
				t.Fatal(err)
			}
			status, retryAfter, e := postCoord(t, coord.Handler(),
				`{"p":[1,2,3,100,200],"q":[5,50],"phi":1}`)
			if status != http.StatusServiceUnavailable {
				t.Fatalf("status %d, want 503 (error %+v)", status, e)
			}
			if e.Code != tc.code {
				t.Fatalf("code %q, want %q", e.Code, tc.code)
			}
			if retryAfter == "" || retryAfter == "0" {
				t.Fatalf("Retry-After %q not propagated", retryAfter)
			}
		})
	}
}

// panicEngine blows up on every evaluation.
type panicEngine struct{ core.GPhi }

func (panicEngine) Dist(graph.NodeID, int, core.Aggregate) (float64, bool) {
	panic("engine corrupted")
}

// A host engine that panics answers the coordinator's public client
// 500 "internal" with the panic's value and nothing of the host's
// goroutine stack: the engine run classifies the panic without one.
func TestCoordinatorEnginePanicCarriesNoStack(t *testing.T) {
	g, tree := testGraph(t, 260, 21)
	plan, err := NewPlan(g, tree, PlanOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	transports := make([]Transport, 2)
	for s := range transports {
		h := NewHost(s, g, HostOptions{})
		if err := h.AddEngine("Fragile", func() core.GPhi { return panicEngine{core.NewINE(g)} }); err != nil {
			t.Fatal(err)
		}
		transports[s] = InProc{Host: h}
	}
	coord, err := NewCoordinator(plan, transports, CoordinatorOptions{Retry: &resil.RetryPolicy{Attempts: 1}})
	if err != nil {
		t.Fatal(err)
	}
	status, _, e := postCoord(t, coord.Handler(), `{"p":[1,2,3,100,200],"q":[5,50],"phi":1,"engine":"Fragile"}`)
	if status != http.StatusInternalServerError || e.Code != "internal" {
		t.Fatalf("status %d code %q, want 500 internal (error %q)", status, e.Code, e.Error)
	}
	if !strings.Contains(e.Error, "engine panic: engine corrupted") || strings.Contains(e.Error, "goroutine ") {
		t.Fatalf("error %q, want the panic's value and no stack", e.Error)
	}
}

// One dead shard is a 200 with the degraded stamp, not an error: partial
// answers are explicit, never silent, never fatal.
func TestCoordinatorHandlerDegraded(t *testing.T) {
	const nodes = 260
	cl := newDegradedCluster(t, nodes, 21, 4, 1)
	rr := httptest.NewRecorder()
	req := httptest.NewRequest("POST", "/fann",
		strings.NewReader(`{"p":[1,17,63,88,140,201,230],"q":[5,99,150,222],"phi":0.5,"agg":"sum","k":3}`))
	cl.coord.Handler().ServeHTTP(rr, req)
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d body %s", rr.Code, rr.Body.String())
	}
	var resp FANNResponse
	if err := json.NewDecoder(rr.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Degraded || len(resp.DegradedShards) != 1 || resp.DegradedShards[0] != 1 {
		t.Fatalf("degraded stamp missing: %+v", resp)
	}
	if len(resp.Answers) == 0 {
		t.Fatal("no answers despite three healthy shards")
	}
}
