package server

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime/debug"
	"testing"

	"fannr/internal/core"
	"fannr/internal/graph"
	"fannr/internal/obs"
	"fannr/internal/phl"
)

// TestFANNHandlerAllocs pins what one /fann request allocates through
// Server.Handler() under fannr-server's default acceleration (result
// cache and coalescing on): an exact cache hit, and a PHL query that
// computes (every request a Q the cache has not seen), over a built index
// and over a file-backed, mmap'd one. The limits are the counts measured
// once a request id cost one allocation at any sequence number. The
// process first hands out 1 000 request ids, so the counts are those of a
// server that has been up a while, not of its first few hundred requests.
func TestFANNHandlerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under the race detector are not the shipped path's")
	}
	for i := 0; i < 1000; i++ {
		obs.NewRequestID()
	}
	opts := Options{CacheEntries: 4096, Coalesce: true}
	rows := []struct {
		name                     string
		maxExactHit, maxComputed float64
		server                   func() (*Server, *graph.Graph)
	}{
		{"built", 79, 128, func() (*Server, *graph.Graph) {
			g, err := graph.Generate(graph.GenConfig{Nodes: 400, Seed: 29, Name: "allocs"})
			if err != nil {
				t.Fatal(err)
			}
			labels, err := phl.Build(g, phl.Options{})
			if err != nil {
				t.Fatal(err)
			}
			opts := opts
			opts.Indexes = core.Indexes{PHL: labels}
			srv, err := New(g, opts)
			if err != nil {
				t.Fatal(err)
			}
			return srv, g
		}},
		{"file-backed", 80, 132, func() (*Server, *graph.Graph) {
			h := newReloadHarness(t, true, nil, opts)
			return h.srv, h.g
		}},
	}
	for _, row := range rows {
		srv, g := row.server()
		h := srv.Handler()
		const runs = 200
		var bodies [][]byte
		n := g.NumNodes()
		for i := 0; i < runs+2; i++ {
			bodies = append(bodies, []byte(fmt.Sprintf(
				`{"p":[1,9,33,57,101,150,188,230,275,301],"q":[%d,%d,%d,%d],"phi":0.5,"agg":"max","algo":"gd","engine":"PHL"}`,
				i%n, (i+97)%n, (i+211)%n, (i+293)%n)))
		}
		serve := func(body []byte) {
			rr := httptest.NewRecorder()
			h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/fann", bytes.NewReader(body)))
			if rr.Code != http.StatusOK {
				t.Fatalf("%s: status %d: %s", row.name, rr.Code, rr.Body.String())
			}
		}
		gc := debug.SetGCPercent(-1) // a GC empties the pools the path draws from
		serve(bodies[0])
		hit := testing.AllocsPerRun(runs, func() { serve(bodies[0]) })
		i := 1
		computed := testing.AllocsPerRun(runs, func() { serve(bodies[i]); i++ })
		debug.SetGCPercent(gc)
		t.Logf("%s: allocs/request: exact hit %.0f, computed %.0f", row.name, hit, computed)
		if hit > row.maxExactHit {
			t.Errorf("%s: exact cache hit: %.0f allocs/request, want <= %.0f", row.name, hit, row.maxExactHit)
		}
		if computed > row.maxComputed {
			t.Errorf("%s: computed PHL query: %.0f allocs/request, want <= %.0f", row.name, computed, row.maxComputed)
		}
	}
}
