package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"fannr/internal/core"
	"fannr/internal/graph"
	"fannr/internal/gtree"
	"fannr/internal/phl"
	"fannr/internal/sp"
)

func testServer(t *testing.T) (*httptest.Server, *graph.Graph) {
	t.Helper()
	g, err := graph.Generate(graph.GenConfig{Nodes: 800, Seed: 5, Name: "srv"})
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
	tr, err := gtree.Build(g, gtree.Options{MaxLeafSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.AddEngine("GTree", func() core.GPhi { return core.NewGTreeGPhi(tr) }); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, g
}

func post[T any](t *testing.T, url string, body any) (int, T) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out T
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func TestHealthAndMeta(t *testing.T) {
	ts, g := testServer(t)
	resp, err := http.Get(ts.URL + "/health")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("health status %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/meta")
	if err != nil {
		t.Fatal(err)
	}
	var meta struct {
		Nodes   int      `json:"nodes"`
		Engines []string `json:"engines"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&meta); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if meta.Nodes != g.NumNodes() {
		t.Fatalf("meta nodes %d, want %d", meta.Nodes, g.NumNodes())
	}
	want := map[string]bool{"INE": false, "PHL": false, "IER-PHL": false, "GTree": false}
	for _, e := range meta.Engines {
		if _, ok := want[e]; ok {
			want[e] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Fatalf("engine %s missing from /meta", name)
		}
	}
}

func TestFANNEndpointMatchesDirectCall(t *testing.T) {
	ts, g := testServer(t)
	q := core.Query{
		P:   []graph.NodeID{10, 50, 100, 200, 400, 700},
		Q:   []graph.NodeID{5, 25, 125, 325, 625},
		Phi: 0.6,
		Agg: core.Max,
	}
	want, err := core.Brute(g, q)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []struct{ algo, engine string }{
		{"gd", "INE"}, {"rlist", "PHL"}, {"ier", "IER-PHL"},
		{"exactmax", "INE"}, {"gd", "GTree"},
	} {
		status, resp := post[FANNResponse](t, ts.URL+"/fann", FANNRequest{
			P: q.P, Q: q.Q, Phi: q.Phi, Agg: "max", Algo: spec.algo, Engine: spec.engine,
		})
		if status != http.StatusOK {
			t.Fatalf("%+v: status %d", spec, status)
		}
		if len(resp.Answers) != 1 || math.Abs(resp.Answers[0].Dist-want.Dist) > 1e-6 {
			t.Fatalf("%+v: answers %+v, want dist %v", spec, resp.Answers, want.Dist)
		}
		if len(resp.Answers[0].Subset) != q.K() {
			t.Fatalf("%+v: subset size %d, want %d", spec, len(resp.Answers[0].Subset), q.K())
		}
	}
}

func TestFANNTopK(t *testing.T) {
	ts, g := testServer(t)
	q := core.Query{
		P:   []graph.NodeID{10, 50, 100, 200, 400, 700},
		Q:   []graph.NodeID{5, 25, 125, 325},
		Phi: 0.5,
		Agg: core.Max,
	}
	want, err := core.KBrute(g, q, 3)
	if err != nil {
		t.Fatal(err)
	}
	status, resp := post[FANNResponse](t, ts.URL+"/fann", FANNRequest{
		P: q.P, Q: q.Q, Phi: q.Phi, Algo: "gd", Engine: "PHL", K: 3,
	})
	if status != http.StatusOK || len(resp.Answers) != 3 {
		t.Fatalf("status %d answers %d", status, len(resp.Answers))
	}
	for i := range want {
		if math.Abs(resp.Answers[i].Dist-want[i].Dist) > 1e-6 {
			t.Fatalf("rank %d dist %v, want %v", i, resp.Answers[i].Dist, want[i].Dist)
		}
	}
}

func TestFANNBadRequests(t *testing.T) {
	ts, _ := testServer(t)
	type errResp struct {
		Error string `json:"error"`
	}
	cases := []FANNRequest{
		{P: nil, Q: []graph.NodeID{1}, Phi: 0.5},                                    // empty P
		{P: []graph.NodeID{1}, Q: []graph.NodeID{2}, Phi: 0},                        // bad phi
		{P: []graph.NodeID{1}, Q: []graph.NodeID{2}, Phi: 0.5, Agg: "median"},       // bad agg
		{P: []graph.NodeID{1}, Q: []graph.NodeID{2}, Phi: 0.5, Engine: "warp"},      // bad engine
		{P: []graph.NodeID{1}, Q: []graph.NodeID{2}, Phi: 0.5, Algo: "psychic"},     // bad algo
		{P: []graph.NodeID{1 << 30}, Q: []graph.NodeID{2}, Phi: 0.5},                // id range
		{P: []graph.NodeID{1}, Q: []graph.NodeID{2}, Phi: 0.5, Agg: "max", K: 1000}, // k is fine, still 200
	}
	for i, req := range cases[:6] {
		status, resp := post[errResp](t, ts.URL+"/fann", req)
		if status != http.StatusBadRequest || resp.Error == "" {
			t.Fatalf("case %d: status %d, error %q", i, status, resp.Error)
		}
	}
	// Oversized K clamps to |P| and succeeds.
	status, _ := post[FANNResponse](t, ts.URL+"/fann", cases[6])
	if status != http.StatusOK {
		t.Fatalf("large K: status %d", status)
	}
}

func TestDistEndpoint(t *testing.T) {
	ts, g := testServer(t)
	d := sp.NewDijkstra(g)
	status, resp := post[map[string]float64](t, ts.URL+"/dist", DistRequest{U: 3, V: 400})
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if want := d.Dist(3, 400); math.Abs(resp["dist"]-want) > 1e-9 {
		t.Fatalf("dist %v, want %v", resp["dist"], want)
	}
	status, _ = post[map[string]string](t, ts.URL+"/dist", DistRequest{U: -1, V: 4})
	if status != http.StatusBadRequest {
		t.Fatalf("bad ids: status %d", status)
	}
}

// Concurrent requests run in parallel over pooled engines; answers must
// stay identical to the single-request result on every engine, and /dist
// must be concurrent too. Run under -race to certify the lock-free path.
func TestConcurrentRequests(t *testing.T) {
	ts, g := testServer(t)
	req := FANNRequest{
		P:   []graph.NodeID{10, 50, 100, 200},
		Q:   []graph.NodeID{5, 25, 125},
		Phi: 0.5, Algo: "rlist",
	}
	engines := []string{"PHL", "INE", "GTree", "IER-PHL"}
	// Sequential reference per engine.
	want := map[string]float64{}
	for _, e := range engines {
		r := req
		r.Engine = e
		if e == "IER-PHL" {
			r.Algo = "ier"
		}
		status, resp := post[FANNResponse](t, ts.URL+"/fann", r)
		if status != http.StatusOK || len(resp.Answers) != 1 {
			t.Fatalf("engine %s: status %d", e, status)
		}
		want[e] = resp.Answers[0].Dist
	}
	wantDist := sp.NewDijkstra(g).Dist(3, 400)

	var wg sync.WaitGroup
	const perEngine = 6
	for _, e := range engines {
		for i := 0; i < perEngine; i++ {
			wg.Add(1)
			go func(e string) {
				defer wg.Done()
				r := req
				r.Engine = e
				if e == "IER-PHL" {
					r.Algo = "ier"
				}
				status, resp := post[FANNResponse](t, ts.URL+"/fann", r)
				if status != http.StatusOK || len(resp.Answers) != 1 {
					t.Errorf("engine %s: status %d", e, status)
					return
				}
				if got := resp.Answers[0].Dist; got != want[e] {
					t.Errorf("engine %s: concurrent dist %v, sequential %v", e, got, want[e])
				}
			}(e)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, resp := post[map[string]float64](t, ts.URL+"/dist", DistRequest{U: 3, V: 400})
			if status != http.StatusOK || math.Abs(resp["dist"]-wantDist) > 1e-9 {
				t.Errorf("concurrent /dist: status %d dist %v, want %v", status, resp["dist"], wantDist)
			}
		}()
	}
	wg.Wait()
}

// Engine registration must freeze once Handler has been called, so the
// pools map is never mutated while requests are in flight.
func TestAddEngineFrozenAfterHandler(t *testing.T) {
	g, err := graph.Generate(graph.GenConfig{Nodes: 100, Seed: 3, Name: "frz"})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ine := func() core.GPhi { return core.NewINE(g) }
	if err := srv.AddEngine("INE2", ine); err != nil {
		t.Fatalf("pre-freeze AddEngine: %v", err)
	}
	if err := srv.AddEngine("INE2", ine); err == nil {
		t.Fatal("duplicate engine name accepted")
	}
	if err := srv.AddEngine("", ine); err == nil {
		t.Fatal("empty engine name accepted")
	}
	if err := srv.AddEngine("nilfactory", nil); err == nil {
		t.Fatal("nil factory accepted")
	}
	_ = srv.Handler()
	if err := srv.AddEngine("late", ine); err == nil {
		t.Fatal("AddEngine after Handler accepted")
	}
	// The engine registered before the freeze still serves.
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	status, resp := post[FANNResponse](t, ts.URL+"/fann", FANNRequest{
		P: []graph.NodeID{1, 2}, Q: []graph.NodeID{3, 4}, Phi: 1, Engine: "INE2",
	})
	if status != http.StatusOK || len(resp.Answers) != 1 {
		t.Fatalf("frozen engine INE2: status %d", status)
	}
}

func TestNoResultIs404(t *testing.T) {
	// Disconnected graph: P unreachable from Q.
	b := graph.NewBuilder(4)
	_ = b.AddEdge(0, 1, 1)
	_ = b.AddEdge(2, 3, 1)
	g, _ := b.Build()
	srv, err := New(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	status, _ := post[map[string]string](t, ts.URL+"/fann", FANNRequest{
		P: []graph.NodeID{0}, Q: []graph.NodeID{2, 3}, Phi: 1,
	})
	if status != http.StatusNotFound {
		t.Fatalf("status %d, want 404", status)
	}
}
