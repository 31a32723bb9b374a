package server

import (
	"fmt"
	"math"
	"net/http"
	"strings"
	"testing"

	"fannr/internal/core"
	"fannr/internal/graph"
	"fannr/internal/obs"
)

// TestSetRegistrySurfaces walks one P layer through its first three
// sights — each request brings a Q of its own, as hot_ier's do — and
// reads the registry off every operator surface: the ?explain=1 decode
// span says what became of P ("first-sight", "fill", "hit"), the
// fannr_sets_* counters move by exactly the two lists a request carries,
// /meta's sets block holds the one entry, and none of it is filed under
// the fannr_cache_* families the result cache owns.
func TestSetRegistrySurfaces(t *testing.T) {
	_, ts, g := cacheServer(t, Options{})
	P := []graph.NodeID{3, 17, 42, 99, 140, 181, 17, 260}
	metric := func(sc obs.Scrape, name string) float64 {
		v, ok := sc.Value(name)
		if !ok {
			t.Fatalf("%s not exposed", name)
		}
		return v
	}
	names := [4]string{"fannr_sets_hits_total", "fannr_sets_fills_total", "fannr_sets_skips_total", "fannr_sets_evictions_total"}
	prev := scrapeMetrics(t, ts.URL)
	for sight, want := range []struct {
		sets   string
		deltas [4]float64 // hits, fills, skips, evictions
	}{
		{"first-sight", [4]float64{0, 0, 2, 0}},
		{"fill", [4]float64{0, 1, 1, 0}},
		{"hit", [4]float64{1, 0, 1, 0}},
	} {
		Q := []graph.NodeID{graph.NodeID(5 + sight), 60, 120, graph.NodeID(150 + sight), 199}
		req := FANNRequest{P: P, Q: Q, Phi: 0.6, Agg: "sum", Algo: "ier", Engine: "IER-A*", K: 2}
		status, resp := post[FANNResponse](t, ts.URL+"/fann?explain=1", req)
		if status != http.StatusOK || resp.Explain == nil {
			t.Fatalf("sight %d: status %d, explain %v", sight+1, status, resp.Explain)
		}
		var sets any
		for _, sp := range collectSpans(resp.Explain.Spans) {
			if sp.Name == "decode" {
				sets = sp.Attrs["sets"]
			}
		}
		if sets != want.sets {
			t.Fatalf("sight %d: decode span sets = %v, want %q", sight+1, sets, want.sets)
		}
		brute, err := core.KBrute(g, core.Query{P: P, Q: Q, Phi: 0.6, Agg: core.Sum}, 2)
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Answers) != len(brute) {
			t.Fatalf("sight %d: %d answers, want %d", sight+1, len(resp.Answers), len(brute))
		}
		for i, a := range resp.Answers {
			if a.P != brute[i].P || math.Abs(a.Dist-brute[i].Dist) > 1e-9*(1+brute[i].Dist) {
				t.Fatalf("sight %d rank %d: got (%d, %v), want (%d, %v)", sight+1, i, a.P, a.Dist, brute[i].P, brute[i].Dist)
			}
		}
		sc := scrapeMetrics(t, ts.URL)
		var got [4]float64
		for i, name := range names {
			got[i] = metric(sc, name) - metric(prev, name)
		}
		if got != want.deltas {
			t.Fatalf("sight %d: hits / fills / skips / evictions moved by %v, want %v", sight+1, got, want.deltas)
		}
		prev = sc
	}
	_, meta := getJSON(t, ts.URL+"/meta")
	sets, ok := meta["sets"].(map[string]any)
	if !ok || sets["entries"] != 1.0 || sets["bytes"].(float64) <= 0 {
		t.Fatalf("/meta sets = %v, want one entry with its charge", meta["sets"])
	}
	for name := range prev {
		if strings.HasPrefix(name, "fannr_cache_") {
			t.Fatalf("cache-less server exposes %s", name)
		}
	}
}

// TestGenerationKeyFormat pins the cache-key member generationKey builds
// without fmt against the format it replaced, and the cache span of a
// reloadable engine against it across a swap.
func TestGenerationKeyFormat(t *testing.T) {
	long := strings.Repeat("an-engine-name-longer-than-the-stack-buffer", 3)
	for _, engine := range []string{"PHL", "IER-PHL", "", long} {
		for _, gen := range []uint64{1, 9, 10, 12345, math.MaxUint64} {
			if got, want := generationKey(engine, gen), fmt.Sprintf("%s@%d", engine, gen); got != want {
				t.Fatalf("generationKey(%q, %d) = %q, want %q", engine, gen, got, want)
			}
		}
	}
	h := newReloadHarness(t, true, nil, Options{CacheEntries: 64})
	for gen := 1; gen <= 2; gen++ {
		req, _ := h.query(gen)
		status, resp := post[FANNResponse](t, h.ts.URL+"/fann?explain=1", req)
		if status != http.StatusOK || resp.Explain == nil {
			t.Fatalf("generation %d: status %d", gen, status)
		}
		var key any
		for _, sp := range collectSpans(resp.Explain.Spans) {
			if sp.Name == "cache" {
				key = sp.Attrs["key_engine"]
			}
		}
		if want := fmt.Sprintf("PHL@%d", gen); key != want {
			t.Fatalf("cache span key_engine = %v, want %q", key, want)
		}
		if gen == 1 {
			if status, _ := postReload(t, h.ts.URL); status != http.StatusOK {
				t.Fatalf("reload status %d", status)
			}
		}
	}
}
