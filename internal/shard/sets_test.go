package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"fannr/internal/core"
	"fannr/internal/graph"
	"fannr/internal/obs"
)

// layer draws n distinct vertices of g in random order, plus two repeats
// when dups is set.
func layer(rng *rand.Rand, g *graph.Graph, n int, dups bool) []graph.NodeID {
	P := make([]graph.NodeID, 0, n+2)
	for _, v := range rng.Perm(g.NumNodes())[:n] {
		P = append(P, graph.NodeID(v))
	}
	if dups {
		P = append(P, P[0], P[n/2])
	}
	return P
}

// dedupe returns P's first occurrences in order.
func dedupe(P []graph.NodeID) []graph.NodeID {
	var out []graph.NodeID
	for _, v := range P {
		if !slices.Contains(out, v) {
			out = append(out, v)
		}
	}
	return out
}

// checkExact compares a coordinated result with single-process GD over
// the same engine, bit for bit.
func checkExact(t *testing.T, g *graph.Graph, req *Request, res *Result) {
	t.Helper()
	agg := core.Max
	if req.Agg == "sum" {
		agg = core.Sum
	}
	want, err := core.Dispatch(g, "gd", core.NewINE(g), core.Query{P: req.P, Q: req.Q, Phi: req.Phi, Agg: agg}, req.K)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != len(want) {
		t.Fatalf("%d answers, want %d", len(res.Answers), len(want))
	}
	for i, a := range res.Answers {
		if a.P != want[i].P || math.Float64bits(a.Dist) != math.Float64bits(want[i].Dist) || !slices.Equal(a.Subset, want[i].Subset) {
			t.Fatalf("rank %d: got %+v, want %+v", i, a, want[i])
		}
	}
}

// A P layer sent again and again is sorted once by the coordinator and
// once by each host that gets a slice of it, and cut once; every answer
// is the single-process one. A plan that finds an entry another plan
// has cut cuts it again rather than scatter along a stale cut.
func TestCoordinatorSetRegistry(t *testing.T) {
	const nodes = 260
	cl := newTestCluster(t, nodes, 21, 4, CoordinatorOptions{})
	rng := rand.New(rand.NewSource(31))
	P, doubled := layer(rng, cl.g, 60, false), layer(rng, cl.g, 60, true)
	request := func(P []graph.NodeID) *Request {
		Q := make([]graph.NodeID, 3)
		for i := range Q {
			Q[i] = graph.NodeID(rng.Intn(cl.g.NumNodes()))
		}
		return &Request{P: slices.Clone(P), Q: Q, Phi: 0.67, Agg: "sum", Algo: "gd", K: 3}
	}
	for i := 0; i < 10; i++ {
		req := request([][]graph.NodeID{P, doubled}[i%2])
		res, err := cl.coord.Execute(context.Background(), req, nil)
		if err != nil {
			t.Fatal(err)
		}
		checkExact(t, cl.g, req, res)
	}
	if m := cl.coord.SetMetrics(); m.Fills < 2 || m.Hits < 6 {
		t.Fatalf("coordinator registry after five requests over each of two layers: %+v", m)
	}
	hostHits := int64(0)
	for _, h := range cl.hosts {
		hostHits += h.tier.Sets.Metrics().Hits
	}
	if hostHits == 0 {
		t.Fatal("no host found its slice of the layer in its registry")
	}

	// A layer sent with duplicates in it is validated from its entry but
	// scattered in its duplicate-free form, which is no key: it is cut
	// per request, as every P was before.
	if cl.plan.sets.Find(doubled, cl.g.NumNodes()) == nil || cl.plan.sets.Find(dedupe(doubled), cl.g.NumNodes()) != nil {
		t.Fatal("the layer with duplicates: want an entry for the list as sent and none for its duplicate-free form")
	}
	// SplitP stays a function of the list it is given: asked with the
	// registered list itself, repeats included, it routes every occurrence.
	if got := slices.Concat(cl.plan.SplitP(doubled)...); len(got) != len(doubled) {
		t.Fatalf("SplitP of a registered %d-entry list routed %d", len(doubled), len(got))
	}
	entry := cl.plan.sets.Find(P, cl.g.NumNodes())
	if entry == nil {
		t.Fatal("the layer has no entry")
	}
	parts := entry.Split(cl.plan, func([]graph.NodeID) [][]graph.NodeID {
		t.Fatal("the layer was cut again for the plan that had cut it")
		return nil
	})
	for s, part := range parts {
		for _, v := range part {
			if cl.plan.ShardOf(v) != s {
				t.Fatalf("cut routed %d to shard %d, owner %d", v, s, cl.plan.ShardOf(v))
			}
		}
	}

	// Same graph, same registry, two shards instead of four.
	two := newTestCluster(t, nodes, 21, 2, CoordinatorOptions{})
	two.plan.sets = cl.plan.sets
	for i := 0; i < 2; i++ {
		req := request(P)
		res, err := two.coord.Execute(context.Background(), req, nil)
		if err != nil {
			t.Fatal(err)
		}
		checkExact(t, two.g, req, res)
	}
	if got := entry.Split(two.plan, two.plan.cut); len(got) != 2 {
		t.Fatalf("the entry's cut for the two-shard plan has %d parts", len(got))
	}
}

// goid returns the calling goroutine's id, read off its stack header.
func goid() int {
	var buf [64]byte
	fields := bytes.Fields(buf[:runtime.Stack(buf[:], false)])
	id, _ := strconv.Atoi(string(fields[1]))
	return id
}

// meetTransport records which goroutine each call ran on and, when
// meet is set, holds a call until a second one is in flight.
type meetTransport struct {
	Transport
	mu    *sync.Mutex
	goids *[]int
	meet  *sync.WaitGroup
}

func (m meetTransport) Call(ctx context.Context, req *Request) (*Response, error) {
	m.mu.Lock()
	*m.goids = append(*m.goids, goid())
	m.mu.Unlock()
	if m.meet != nil {
		m.meet.Done()
		met := make(chan struct{})
		go func() { m.meet.Wait(); close(met) }()
		select {
		case <-met:
		case <-time.After(5 * time.Second):
			return nil, &Error{Status: 500, Code: "internal", Msg: "the wave's calls did not overlap"}
		}
	}
	return m.Transport.Call(ctx, req)
}

// The first call of a wave runs on the goroutine that called Execute —
// all of them at fan-out 1 — and the rest of the wave still runs beside
// it.
func TestCoordinatorRunsFirstCallInline(t *testing.T) {
	g, tr := testGraph(t, 260, 21)
	plan, err := NewPlan(g, tr, PlanOptions{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	// One vertex of every shard, none of them a member of Q, so nothing
	// is pruned before the last wave.
	var P []graph.NodeID
	for s := 0; s < plan.Shards(); s++ {
		P = append(P, plan.Group(s)[len(plan.Group(s))/2])
	}
	req := &Request{P: P, Q: []graph.NodeID{plan.Group(0)[0], plan.Group(3)[0]}, Phi: 1, Agg: "max", K: 4}
	for _, fanout := range []int{1, 2} {
		var (
			mu    sync.Mutex
			goids []int
			meet  *sync.WaitGroup
		)
		if fanout == 2 {
			meet = new(sync.WaitGroup)
			meet.Add(2) // the first wave's two calls; later Done calls would panic, so only one wave may follow
		}
		transports := make([]Transport, plan.Shards())
		for s := range transports {
			h := NewHost(s, g, HostOptions{})
			if err := h.AddEngine("INE", func() core.GPhi { return core.NewINE(g) }); err != nil {
				t.Fatal(err)
			}
			transports[s] = meetTransport{Transport: InProc{Host: h}, mu: &mu, goids: &goids, meet: meet}
		}
		coord, err := NewCoordinator(plan, transports, CoordinatorOptions{MaxFanout: fanout})
		if err != nil {
			t.Fatal(err)
		}
		if fanout == 2 {
			req = &Request{P: P[:2], Q: req.Q, Phi: 1, Agg: "max", K: 2} // exactly one wave of two
		}
		res, err := coord.Execute(context.Background(), req, nil)
		if err != nil {
			t.Fatalf("fan-out %d: %v", fanout, err)
		}
		if res.Contacted != len(req.P) {
			t.Fatalf("fan-out %d: contacted %d of %d shards", fanout, res.Contacted, len(req.P))
		}
		me, inline := goid(), 0
		for _, id := range goids {
			if id == me {
				inline++
			}
		}
		if want := map[int]int{1: len(req.P), 2: 1}[fanout]; inline != want {
			t.Fatalf("fan-out %d: %d of %d calls ran on the caller's goroutine, want %d", fanout, inline, len(goids), want)
		}
	}
}

// A host call runs on a pooled Scratch, and what it returns does not
// live in it: replies (and the host cache's copies) keep their subsets
// while later calls reuse the Scratch.
func TestHostRepliesOutliveScratch(t *testing.T) {
	g, _ := testGraph(t, 260, 21)
	h := NewHost(0, g, HostOptions{CacheEntries: 1024}) // 64 a cache shard: six results cannot evict each other
	if err := h.AddEngine("INE", func() core.GPhi { return core.NewINE(g) }); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(32))
	P := layer(rng, g, 30, true)
	type sent struct {
		req  *Request
		resp *Response
		want []core.Answer
	}
	var all []sent
	for i := 0; i < 6; i++ {
		Q := make([]graph.NodeID, 4+i)
		for j := range Q {
			Q[j] = graph.NodeID(rng.Intn(g.NumNodes()))
		}
		req := &Request{P: P, Q: Q, Phi: 0.75, Agg: "sum", Algo: "gd", Engine: "INE", K: 1}
		resp, err := h.Execute(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.Dispatch(g, "gd", core.NewINE(g), core.Query{P: P, Q: Q, Phi: 0.75, Agg: core.Sum}, 1)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, sent{req, resp, want})
	}
	for round := 0; round < 2; round++ { // as first returned, then from the host cache
		for i, s := range all {
			resp := s.resp
			if round == 1 {
				var err error
				if resp, err = h.Execute(context.Background(), s.req); err != nil || !resp.CacheHit {
					t.Fatalf("request %d again: err %v, cache hit %v", i, err, resp != nil && resp.CacheHit)
				}
			}
			if len(resp.Answers) != 1 || resp.Answers[0].P != s.want[0].P || !slices.Equal(resp.Answers[0].Subset, s.want[0].Subset) {
				t.Fatalf("round %d request %d: reply %+v, want %+v", round, i, resp.Answers, s.want)
			}
		}
	}
	if m := h.tier.Sets.Metrics(); m.Hits == 0 {
		t.Fatalf("host registry after six calls over one slice: %+v", m)
	}
}

// The coordinator's registry on its operator surfaces: three requests
// over one layer, each with another Q, move fannr_shard_sets_* by the
// two lists a request carries, and /meta reports the one entry.
func TestCoordinatorSetSurfaces(t *testing.T) {
	reg := obs.NewRegistry()
	cl := newTestCluster(t, 260, 21, 4, CoordinatorOptions{Registry: reg})
	srv := httptest.NewServer(cl.coord.Handler())
	t.Cleanup(srv.Close)
	counters := func() (got [4]float64) {
		for i, name := range []string{"hits", "fills", "skips", "evictions"} {
			v, ok := reg.Value("fannr_shard_sets_" + name + "_total")
			if !ok {
				t.Fatalf("fannr_shard_sets_%s_total not exposed", name)
			}
			got[i] = v
		}
		return got
	}
	for sight, want := range [][4]float64{{0, 0, 2, 0}, {0, 1, 3, 0}, {1, 1, 4, 0}} {
		body := fmt.Sprintf(`{"p":[3,40,77,120,199],"q":[%d,55,180],"phi":1,"agg":"max","k":2}`, 10+sight)
		resp, err := http.Post(srv.URL+"/fann", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("sight %d: status %d", sight+1, resp.StatusCode)
		}
		if got := counters(); got != want {
			t.Fatalf("sight %d: hits / fills / skips / evictions = %v, want %v", sight+1, got, want)
		}
	}
	resp, err := http.Get(srv.URL + "/meta")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var meta struct {
		Sets struct {
			Entries int   `json:"entries"`
			Bytes   int64 `json:"bytes"`
		} `json:"sets"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&meta); err != nil {
		t.Fatal(err)
	}
	if meta.Sets.Entries != 1 || meta.Sets.Bytes <= 0 {
		t.Fatalf("/meta sets = %+v, want the layer's one entry and its charge", meta.Sets)
	}
}
