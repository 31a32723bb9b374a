package difftest

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
	"fannr/internal/resil"
	"fannr/internal/server"
	"fannr/internal/shard"
)

// TestDecodeErrorTaxonomyThreeTiers runs one table of request bodies
// through the three places a /fann request is decoded — the
// single-process server, the shard coordinator, and a shard host's framed
// RPC — which share one decoder (internal/wire) and must therefore agree
// on every verdict: a body the decoder or Validate rejects is 400
// "invalid" everywhere, a body over 16 MiB is 413 "too_large"
// everywhere, and the spellings only encoding/json accepts are served
// everywhere.
func TestDecodeErrorTaxonomyThreeTiers(t *testing.T) {
	g, err := graph.Generate(graph.GenConfig{Nodes: 260, Seed: 21, Name: "tiers"})
	if err != nil {
		t.Fatal(err)
	}
	ine := func() core.GPhi { return core.NewINE(g) }

	srv, err := server.New(g, server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := gtree.Build(g, gtree.Options{MaxLeafSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := shard.NewPlan(g, tree, shard.PlanOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	hosts := make([]*shard.Host, 2)
	transports := make([]shard.Transport, 2)
	for s := range hosts {
		hosts[s] = shard.NewHost(s, g, shard.HostOptions{})
		if err := hosts[s].AddEngine("INE", ine); err != nil {
			t.Fatal(err)
		}
		transports[s] = shard.InProc{Host: hosts[s]}
	}
	coord, err := shard.NewCoordinator(plan, transports, shard.CoordinatorOptions{Retry: &resil.RetryPolicy{Attempts: 1}})
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

	const head = `{"p":[0,2],"q":[1,2],"phi":1,"pad":"`
	cases := []struct {
		name   string
		body   string
		status int
		code   string
	}{
		{"malformed json", `{"p":[1,2`, http.StatusBadRequest, "invalid"},
		{"wrong field type", `{"p":"not-a-list","q":[1],"phi":1}`, http.StatusBadRequest, "invalid"},
		{"fraction in an id", `{"p":[1.5],"q":[1],"phi":1}`, http.StatusBadRequest, "invalid"},
		{"unknown aggregate", `{"p":[0],"q":[1],"phi":0.5,"agg":"median"}`, http.StatusBadRequest, "invalid"},
		{"out-of-graph id", `{"p":[0,1073741824],"q":[1],"phi":0.5}`, http.StatusBadRequest, "invalid"},
		{"out-of-graph id, nine digits", `{"p":[0,999999999],"q":[1],"phi":0.5}`, http.StatusBadRequest, "invalid"},
		{"negative id", `{"p":[0],"q":[-4],"phi":0.5}`, http.StatusBadRequest, "invalid"},
		{"body of 16 MiB + 1", head + strings.Repeat("x", bodyCap+1-len(head)-2) + `"}`, http.StatusRequestEntityTooLarge, "too_large"},
		{"served: the common shape", `{"p":[0,2,2],"q":[1,2],"phi":1,"agg":"sum","algo":"gd","engine":"INE","k":2}`, http.StatusOK, ""},
		{"served: encoding/json's spellings", `{"P":[0,2],"q":[1,2],"Phi":1e0,"agg":null,"note":{"x":[1]}}`, http.StatusOK, ""},
	}
	for _, tc := range cases {
		for _, tier := range tiers {
			t.Run(tc.name+"/"+tier.name, func(t *testing.T) {
				rr := httptest.NewRecorder()
				tier.handler.ServeHTTP(rr, httptest.NewRequest("POST", tier.path, bytes.NewReader(tier.wrap([]byte(tc.body)))))
				if rr.Code != tc.status {
					t.Fatalf("status %d, want %d (body %.200s)", rr.Code, tc.status, rr.Body.String())
				}
				if tc.status == http.StatusOK {
					return
				}
				var e struct{ Error, Code string }
				if err := json.Unmarshal(rr.Body.Bytes(), &e); err != nil {
					t.Fatalf("error body is not JSON: %v (%.200s)", err, rr.Body.String())
				}
				if e.Code != tc.code || e.Error == "" {
					t.Fatalf("code %q error %q, want code %q and a message", e.Code, e.Error, tc.code)
				}
			})
		}
	}
}
