package difftest

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fannr/internal/core"
	"fannr/internal/graph"
	"fannr/internal/gtree"
	"fannr/internal/lifecycle"
	"fannr/internal/resil"
	"fannr/internal/server"
	"fannr/internal/shard"
)

// fragileEngine panics on every evaluation: an engine bug.
type fragileEngine struct{ core.GPhi }

func (fragileEngine) Dist(graph.NodeID, int, core.Aggregate) (float64, bool) {
	panic("engine corrupted")
}

// TestDecodeErrorTaxonomyThreeTiers runs one table of request bodies
// through the three places a /fann request is served — the
// single-process server, the shard coordinator, and a shard host's framed
// RPC — which share the decoder, the normalise step, the engine run and
// the error table (internal/wire), and must therefore agree on every
// verdict: a body the decoder or Validate rejects is 400 "invalid"
// everywhere, a body over 16 MiB is 413 "too_large" everywhere, the
// spellings only encoding/json accepts are served everywhere, and every
// 503 carries Retry-After. A host column differs only where a host is a
// partial view: an empty slice of P, or no reachable candidate in it, is
// a successful empty reply the coordinator merges. The last rows run in
// order against the same tiers: an engine panic trips the breakers that
// the rows after it meet.
func TestDecodeErrorTaxonomyThreeTiers(t *testing.T) {
	// Two components, so a well-formed query can be unanswerable (404).
	b := graph.NewBuilder(6)
	_ = b.AddEdge(0, 1, 1)
	_ = b.AddEdge(1, 2, 1)
	_ = b.AddEdge(3, 4, 1)
	_ = b.AddEdge(4, 5, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ine := func() core.GPhi { return core.NewINE(g) }
	fragile := func() core.GPhi { return fragileEngine{core.NewINE(g)} }
	const cooldown = time.Minute // a tripped breaker stays open for the rest of the table

	srv, err := server.New(g, server.Options{BreakerThreshold: 1, BreakerCooldown: cooldown})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.AddEngine("Fragile", fragile); err != nil {
		t.Fatal(err)
	}
	tree, err := gtree.Build(g, gtree.Options{MaxLeafSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := shard.NewPlan(g, tree, shard.PlanOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	var indexDown atomic.Bool // every host's index quarantined
	check := func() error {
		if indexDown.Load() {
			return lifecycle.ErrUnavailable
		}
		return nil
	}
	hosts := make([]*shard.Host, 2)
	transports := make([]shard.Transport, 2)
	for s := range hosts {
		hosts[s] = shard.NewHost(s, g, shard.HostOptions{Check: check})
		if err := hosts[s].AddEngine("INE", ine); err != nil {
			t.Fatal(err)
		}
		if err := hosts[s].AddEngine("Fragile", fragile); err != nil {
			t.Fatal(err)
		}
		transports[s] = shard.InProc{Host: hosts[s]}
	}
	coord, err := shard.NewCoordinator(plan, transports, shard.CoordinatorOptions{
		Retry: &resil.RetryPolicy{Attempts: 1}, BreakerThreshold: 1, BreakerCooldown: cooldown,
	})
	if err != nil {
		t.Fatal(err)
	}

	const bodyCap = 16 << 20 // server.maxFANNBody == shard.maxFramePayload
	// A host reads frames: the same JSON inside the shard RPC's envelope.
	// A payload over the cap cannot be framed (EncodeFrame refuses), so it
	// goes out bare — the size check fires before any decoding.
	frame := func(payload []byte) []byte {
		if len(payload) > bodyCap {
			return append(make([]byte, 16), payload...)
		}
		f, err := shard.EncodeFrame(payload)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	tiers := []struct {
		name    string
		handler http.Handler
		path    string
		wrap    func([]byte) []byte
	}{
		{"server", srv.Handler(), "/fann", func(b []byte) []byte { return b }},
		{"coordinator", coord.Handler(), "/fann", func(b []byte) []byte { return b }},
		{"host frame", hosts[0].Handler(), "/shard/fann", frame},
	}

	// want is one cell of the table; status 0 marks a tier the row does
	// not apply to.
	type want struct {
		status int
		code   string
	}
	all := func(status int, code string) [3]want {
		return [3]want{{status, code}, {status, code}, {status, code}}
	}
	ok := want{http.StatusOK, ""}
	const head = `{"p":[0,2],"q":[1,2],"phi":1,"pad":"`
	cases := []struct {
		name      string
		body      string
		want      [3]want // server, coordinator, host frame
		indexDown bool
	}{
		{"malformed json", `{"p":[1,2`, all(http.StatusBadRequest, "invalid"), false},
		{"wrong field type", `{"p":"not-a-list","q":[1],"phi":1}`, all(http.StatusBadRequest, "invalid"), false},
		{"fraction in an id", `{"p":[1.5],"q":[1],"phi":1}`, all(http.StatusBadRequest, "invalid"), false},
		{"unknown aggregate", `{"p":[0],"q":[1],"phi":0.5,"agg":"median"}`, all(http.StatusBadRequest, "invalid"), false},
		{"out-of-graph id", `{"p":[0,1073741824],"q":[1],"phi":0.5}`, all(http.StatusBadRequest, "invalid"), false},
		{"out-of-graph id, nine digits", `{"p":[0,999999999],"q":[1],"phi":0.5}`, all(http.StatusBadRequest, "invalid"), false},
		{"negative id", `{"p":[0],"q":[-4],"phi":0.5}`, all(http.StatusBadRequest, "invalid"), false},
		{"body of 16 MiB + 1", head + strings.Repeat("x", bodyCap+1-len(head)-2) + `"}`, all(http.StatusRequestEntityTooLarge, "too_large"), false},
		{"served: the common shape", `{"p":[0,2,2],"q":[1,2],"phi":1,"agg":"sum","algo":"gd","engine":"INE","k":2}`, all(http.StatusOK, ""), false},
		{"served: encoding/json's spellings", `{"P":[0,2],"q":[1,2],"Phi":1e0,"agg":null,"note":{"x":[1]}}`, all(http.StatusOK, ""), false},
		{"empty P", `{"p":[],"q":[0,1],"phi":0.5}`, [3]want{{http.StatusBadRequest, "invalid"}, {http.StatusBadRequest, "invalid"}, ok}, false},
		{"empty Q", `{"p":[0],"q":[],"phi":0.5}`, all(http.StatusBadRequest, "invalid"), false},
		{"phi zero", `{"p":[0],"q":[1],"phi":0}`, all(http.StatusBadRequest, "invalid"), false},
		{"phi above one", `{"p":[0],"q":[1],"phi":1.5}`, all(http.StatusBadRequest, "invalid"), false},
		{"unknown algorithm", `{"p":[0],"q":[1],"phi":0.5,"algo":"psychic"}`, all(http.StatusBadRequest, "invalid"), false},
		{"ier without coordinates", `{"p":[0],"q":[1],"phi":0.5,"algo":"ier"}`, all(http.StatusBadRequest, "invalid"), false},
		{"exactmax over the sum", `{"p":[0],"q":[1],"phi":0.5,"algo":"exactmax","agg":"sum"}`, all(http.StatusBadRequest, "invalid"), false},
		{"apxsum over the max", `{"p":[0],"q":[1],"phi":0.5,"algo":"apxsum","agg":"max"}`, all(http.StatusBadRequest, "invalid"), false},
		{"unknown engine", `{"p":[0],"q":[1],"phi":0.5,"engine":"warp"}`, all(http.StatusBadRequest, "invalid"), false},
		{"unreachable", `{"p":[0],"q":[3,4,5],"phi":1}`, [3]want{{http.StatusNotFound, "not_found"}, {http.StatusNotFound, "not_found"}, ok}, false},
		// Stateful from here on. The panic trips the server's engine
		// breaker and the coordinator's shard breakers (threshold 1).
		{"engine panic", `{"p":[0,2],"q":[1,2],"phi":1,"engine":"Fragile"}`, all(http.StatusInternalServerError, "internal"), false},
		{"unknown algorithm on a tripped engine", `{"p":[0,2],"q":[1,2],"phi":1,"engine":"Fragile","algo":"psychic"}`, all(http.StatusBadRequest, "invalid"), false},
		// Hosts have no breakers (yet): a host panics again.
		{"tripped engine sheds", `{"p":[0,2],"q":[1,2],"phi":1,"engine":"Fragile"}`,
			[3]want{{http.StatusServiceUnavailable, "overloaded"}, {http.StatusServiceUnavailable, "overloaded"}, {http.StatusInternalServerError, "internal"}}, false},
		// The server's index lifecycle is the reload suite's.
		{"index unavailable", `{"p":[0,2],"q":[1,2],"phi":1}`,
			[3]want{{}, {http.StatusServiceUnavailable, "overloaded"}, {http.StatusServiceUnavailable, "overloaded"}}, true},
	}
	for _, tc := range cases {
		indexDown.Store(tc.indexDown)
		for i, tier := range tiers {
			w := tc.want[i]
			if w.status == 0 {
				continue
			}
			t.Run(tc.name+"/"+tier.name, func(t *testing.T) {
				rr := httptest.NewRecorder()
				tier.handler.ServeHTTP(rr, httptest.NewRequest("POST", tier.path, bytes.NewReader(tier.wrap([]byte(tc.body)))))
				if rr.Code != w.status {
					t.Fatalf("status %d, want %d (body %.200s)", rr.Code, w.status, rr.Body.String())
				}
				if ra := rr.Header().Get("Retry-After"); (rr.Code == http.StatusServiceUnavailable) != (ra != "") {
					t.Fatalf("status %d with Retry-After %q: every 503 carries one, nothing else does", rr.Code, ra)
				}
				if w.status == http.StatusOK {
					return
				}
				var e struct{ Error, Code string }
				if err := json.Unmarshal(rr.Body.Bytes(), &e); err != nil {
					t.Fatalf("error body is not JSON: %v (%.200s)", err, rr.Body.String())
				}
				if e.Code != w.code || e.Error == "" {
					t.Fatalf("code %q error %q, want code %q and a message", e.Code, e.Error, w.code)
				}
				if strings.Contains(e.Error, "goroutine ") {
					t.Fatalf("error %.300q carries a goroutine stack", e.Error)
				}
			})
		}
	}
}
