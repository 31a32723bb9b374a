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
	"fannr/internal/phl"
)

// TestFANNHandlerAllocs pins what one /fann request allocates through
// Server.Handler() under fannr-server's default acceleration (result
// cache and coalescing on): an exact cache hit, and a PHL query that
// computes (every request a Q the cache has not seen). The limits are the
// counts measured at the commit before the request path was cut into
// stages; the split must not add an allocation to either.
func TestFANNHandlerAllocs(t *testing.T) {
	const (
		maxExactHit = 80 // measured at the parent commit
		maxComputed = 130
	)
	if raceEnabled {
		t.Skip("allocation counts under the race detector are not the shipped path's")
	}
	g, err := graph.Generate(graph.GenConfig{Nodes: 400, Seed: 29, Name: "allocs"})
	if err != nil {
		t.Fatal(err)
	}
	labels, err := phl.Build(g, phl.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(g, Options{Indexes: core.Indexes{PHL: labels}, CacheEntries: 4096, Coalesce: true})
	if err != nil {
		t.Fatal(err)
	}
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
			t.Fatalf("status %d: %s", rr.Code, rr.Body.String())
		}
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a GC empties the pools the path draws from
	serve(bodies[0])
	hit := testing.AllocsPerRun(runs, func() { serve(bodies[0]) })
	i := 1
	computed := testing.AllocsPerRun(runs, func() { serve(bodies[i]); i++ })
	t.Logf("allocs/request: exact hit %.0f, computed %.0f", hit, computed)
	if hit > maxExactHit {
		t.Errorf("exact cache hit: %.0f allocs/request, want <= %d", hit, maxExactHit)
	}
	if computed > maxComputed {
		t.Errorf("computed PHL query: %.0f allocs/request, want <= %d", computed, maxComputed)
	}
}
