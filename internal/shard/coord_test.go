package shard

import (
	"context"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"fannr/internal/core"
	"fannr/internal/graph"
	"fannr/internal/resil"
)

// cluster is an in-process shard deployment: plan + one host per shard
// wired to a coordinator through InProc transports (every call still
// round-trips the frame codec).
type cluster struct {
	g     *graph.Graph
	plan  *Plan
	hosts []*Host
	coord *Coordinator
}

func newTestCluster(t *testing.T, nodes int, seed int64, shards int, opts CoordinatorOptions) *cluster {
	t.Helper()
	g, tr := testGraph(t, nodes, seed)
	plan, err := NewPlan(g, tr, PlanOptions{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	cl := &cluster{g: g, plan: plan}
	transports := make([]Transport, shards)
	for s := 0; s < shards; s++ {
		h := NewHost(s, g, HostOptions{})
		if err := h.AddEngine("INE", func() core.GPhi { return core.NewINE(g) }); err != nil {
			t.Fatal(err)
		}
		cl.hosts = append(cl.hosts, h)
		transports[s] = InProc{Host: h}
	}
	cl.coord, err = NewCoordinator(plan, transports, opts)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

func testQueries(n int) []*Request {
	reqs := []*Request{
		{P: []graph.NodeID{3, 40, 77, 120, 199}, Q: []graph.NodeID{10, 55, 180}, Phi: 1.0, Agg: "max", K: 2},
		{P: []graph.NodeID{1, 17, 63, 88, 140, 201, 230}, Q: []graph.NodeID{5, 99, 150, 222}, Phi: 0.5, Agg: "sum", K: 3},
		{P: []graph.NodeID{9, 31, 52, 74, 96, 118, 160, 240}, Q: []graph.NodeID{12, 200}, Phi: 1.0, Agg: "sum", Algo: "rlist", K: 1},
		{P: []graph.NodeID{0, 50, 100, 150, 200, 250}, Q: []graph.NodeID{25, 75, 125, 175}, Phi: 0.25, Agg: "max", Algo: "gd", K: 4},
	}
	for _, r := range reqs {
		for i, p := range r.P {
			r.P[i] = p % graph.NodeID(n)
		}
		for i, q := range r.Q {
			r.Q[i] = q % graph.NodeID(n)
		}
	}
	return reqs
}

// The coordinated answer must match single-process brute force exactly,
// at every shard count — the scatter/bound/prune/merge pipeline is a
// distribution strategy, not an approximation.
func TestCoordinatorExactVsBrute(t *testing.T) {
	const nodes = 260
	for _, S := range []int{1, 2, 4} {
		cl := newTestCluster(t, nodes, 21, S, CoordinatorOptions{})
		for qi, req := range testQueries(nodes) {
			res, err := cl.coord.Execute(context.Background(), req, nil)
			if err != nil {
				t.Fatalf("S=%d query %d: %v", S, qi, err)
			}
			agg := core.Max
			if req.Agg == "sum" {
				agg = core.Sum
			}
			want, err := core.KBrute(cl.g, core.Query{P: req.P, Q: req.Q, Phi: req.Phi, Agg: agg}, req.K)
			if err != nil {
				t.Fatalf("S=%d query %d brute: %v", S, qi, err)
			}
			if len(res.Answers) != len(want) {
				t.Fatalf("S=%d query %d: %d answers, want %d", S, qi, len(res.Answers), len(want))
			}
			for i := range want {
				if math.Abs(res.Answers[i].Dist-want[i].Dist) > 1e-9*(1+want[i].Dist) {
					t.Errorf("S=%d query %d answer %d: dist %v, want %v",
						S, qi, i, res.Answers[i].Dist, want[i].Dist)
				}
			}
			if res.Degraded || len(res.DownShards) != 0 {
				t.Fatalf("S=%d query %d: unexpected degradation %+v", S, qi, res)
			}
			if res.Contacted+res.Pruned > S {
				t.Fatalf("S=%d query %d: contacted %d + pruned %d > S", S, qi, res.Contacted, res.Pruned)
			}
		}
	}
}

// With MaxFanout 1 the coordinator visits shards one at a time in bound
// order, so a query whose best candidate sits at distance 0 must prune
// every shard with a positive bound. The test searches the fixed graph
// for such a query (a P-object that is itself a Q member) rather than
// hard-coding node ids.
func TestCoordinatorPrunes(t *testing.T) {
	const nodes = 260
	cl := newTestCluster(t, nodes, 21, 4, CoordinatorOptions{MaxFanout: 1})
	for v := 0; v < nodes; v++ {
		q := graph.NodeID(v)
		// P: the Q member itself plus one vertex per other shard.
		P := []graph.NodeID{q}
		home := cl.plan.ShardOf(q)
		prunable := 0
		for s := 0; s < cl.plan.Shards(); s++ {
			if s == home || len(cl.plan.Group(s)) == 0 {
				continue
			}
			P = append(P, cl.plan.Group(s)[0])
			if cl.plan.Bound(s, []graph.NodeID{q}, 1, core.Max) > 0 {
				prunable++
			}
		}
		if prunable == 0 {
			continue // bounds too loose for this q; try another vertex
		}
		res, err := cl.coord.Execute(context.Background(), &Request{
			P: P, Q: []graph.NodeID{q}, Phi: 1.0, Agg: "max", K: 1,
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Answers[0].Dist != 0 || res.Answers[0].P != q {
			t.Fatalf("expected distance-0 answer at %d, got %+v", q, res.Answers[0])
		}
		if res.Pruned < prunable {
			t.Fatalf("pruned %d shards, want ≥ %d (contacted %d)", res.Pruned, prunable, res.Contacted)
		}
		return
	}
	t.Fatal("no vertex produced a positive bound on any foreign shard — bounds are vacuous")
}

// failingTransport simulates an unreachable shard host.
type failingTransport struct{ target string }

func (f failingTransport) Target() string { return f.target }
func (f failingTransport) Call(context.Context, *Request) (*Response, error) {
	return nil, &Error{Status: http.StatusServiceUnavailable, Code: "overloaded", RetryAfter: 7, Msg: "connection refused"}
}

// newDegradedCluster builds an S-shard cluster with one shard replaced
// by an always-failing transport.
func newDegradedCluster(t *testing.T, nodes int, seed int64, shards, downShard int) *cluster {
	t.Helper()
	cl := newTestCluster(t, nodes, seed, shards, CoordinatorOptions{
		Retry: &resil.RetryPolicy{Attempts: 1}, BreakerThreshold: 3,
	})
	transports := make([]Transport, shards)
	for s := 0; s < shards; s++ {
		transports[s] = InProc{Host: cl.hosts[s]}
	}
	transports[downShard] = failingTransport{target: "inproc:dead"}
	var err error
	cl.coord, err = NewCoordinator(cl.plan, transports, CoordinatorOptions{
		Retry: &resil.RetryPolicy{Attempts: 1}, BreakerThreshold: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// Killing one shard must degrade, not corrupt: the answer is stamped
// Degraded and equals brute force over P minus the dead shard's objects.
func TestCoordinatorDegradedPartialResults(t *testing.T) {
	const nodes, S, dead = 260, 4, 1
	cl := newDegradedCluster(t, nodes, 21, S, dead)
	req := testQueries(nodes)[1]
	res, err := cl.coord.Execute(context.Background(), req, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded {
		t.Fatal("result not stamped degraded")
	}
	if len(res.DownShards) != 1 || res.DownShards[0] != dead {
		t.Fatalf("DownShards = %v, want [%d]", res.DownShards, dead)
	}
	var reachable []graph.NodeID
	for _, p := range req.P {
		if cl.plan.ShardOf(p) != dead {
			reachable = append(reachable, p)
		}
	}
	if len(reachable) == len(req.P) {
		t.Skip("dead shard owned no P-objects for this query; pick another seed")
	}
	want, err := core.KBrute(cl.g, core.Query{P: reachable, Q: req.Q, Phi: req.Phi, Agg: core.Sum}, req.K)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != len(want) {
		t.Fatalf("%d answers, want %d", len(res.Answers), len(want))
	}
	for i := range want {
		if math.Abs(res.Answers[i].Dist-want[i].Dist) > 1e-9*(1+want[i].Dist) {
			t.Errorf("answer %d: dist %v, want %v", i, res.Answers[i].Dist, want[i].Dist)
		}
	}
}

// Repeated failures must open the dead shard's breaker, and /readyz must
// report the cluster degraded (but still 200: partial service).
func TestCoordinatorBreakerOpensAndReadyz(t *testing.T) {
	const nodes, S, dead = 260, 4, 2
	cl := newDegradedCluster(t, nodes, 21, S, dead)
	req := testQueries(nodes)[0]
	for i := 0; i < 4; i++ { // threshold is 3
		if _, err := cl.coord.Execute(context.Background(), req, nil); err != nil {
			t.Fatal(err)
		}
	}
	if st := cl.coord.breakers[dead].State(); st != resil.Open {
		t.Fatalf("dead shard breaker = %v, want Open", st)
	}
	rr := httptest.NewRecorder()
	cl.coord.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/readyz", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("/readyz = %d with healthy shards remaining", rr.Code)
	}
	if body := rr.Body.String(); !contains(body, `"status":"degraded"`) {
		t.Fatalf("/readyz body missing degraded status: %s", body)
	}
}

// Every shard down: the coordinator relays the overload fault (503 +
// Retry-After) instead of inventing a 500 or a wrong empty answer.
func TestCoordinatorAllShardsDown(t *testing.T) {
	const nodes, S = 260, 2
	cl := newTestCluster(t, nodes, 21, S, CoordinatorOptions{})
	transports := make([]Transport, S)
	for s := range transports {
		transports[s] = failingTransport{target: "inproc:dead"}
	}
	coord, err := NewCoordinator(cl.plan, transports, CoordinatorOptions{
		Retry: &resil.RetryPolicy{Attempts: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = coord.Execute(context.Background(), testQueries(nodes)[0], nil)
	var se *Error
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *shard.Error", err)
	}
	if se.Status != http.StatusServiceUnavailable || se.Code != "overloaded" {
		t.Fatalf("relayed {%d %s}, want {503 overloaded}", se.Status, se.Code)
	}
	if se.RetryAfter != 7 {
		t.Fatalf("Retry-After %d not preserved from shard fault", se.RetryAfter)
	}
}

// The HTTP transport must behave identically to InProc: same answers,
// same taxonomy — proven by running a real host behind httptest.
func TestHTTPTransportRoundTrip(t *testing.T) {
	const nodes, S = 260, 2
	g, tr := testGraph(t, nodes, 21)
	plan, err := NewPlan(g, tr, PlanOptions{Shards: S})
	if err != nil {
		t.Fatal(err)
	}
	transports := make([]Transport, S)
	for s := 0; s < S; s++ {
		h := NewHost(s, g, HostOptions{})
		if err := h.AddEngine("INE", func() core.GPhi { return core.NewINE(g) }); err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(h.Handler())
		defer srv.Close()
		transports[s] = &HTTPTransport{URL: srv.URL, Client: srv.Client()}
	}
	coord, err := NewCoordinator(plan, transports, CoordinatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	req := testQueries(nodes)[0]
	res, err := coord.Execute(context.Background(), req, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.KBrute(g, core.Query{P: req.P, Q: req.Q, Phi: req.Phi, Agg: core.Max}, req.K)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != len(want) {
		t.Fatalf("%d answers over HTTP, want %d", len(res.Answers), len(want))
	}
	for i := range want {
		if math.Abs(res.Answers[i].Dist-want[i].Dist) > 1e-9*(1+want[i].Dist) {
			t.Errorf("answer %d: dist %v, want %v", i, res.Answers[i].Dist, want[i].Dist)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
