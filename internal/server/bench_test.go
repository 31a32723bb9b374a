package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"fannr/internal/core"
	"fannr/internal/graph"
	"fannr/internal/phl"
)

// benchHandler builds a server over a mid-sized network and returns its
// handler. serialize wraps it behind one process-wide mutex, recreating
// the pre-pool architecture (every request serialized, whatever the core
// count) as the baseline for the throughput comparison.
func benchHandler(b *testing.B, serialize bool) http.Handler {
	b.Helper()
	g, err := graph.Generate(graph.GenConfig{Nodes: 3000, Seed: 9, Name: "bench"})
	if err != nil {
		b.Fatal(err)
	}
	labels, err := phl.Build(g, phl.Options{})
	if err != nil {
		b.Fatal(err)
	}
	srv, err := New(g, Options{Indexes: core.Indexes{PHL: labels}})
	if err != nil {
		b.Fatal(err)
	}
	h := srv.Handler()
	if !serialize {
		return h
	}
	var mu sync.Mutex
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		h.ServeHTTP(w, r)
	})
}

func benchThroughput(b *testing.B, serialize bool) {
	h := benchHandler(b, serialize)
	body, err := json.Marshal(FANNRequest{
		P:   []graph.NodeID{10, 50, 100, 200, 400, 700, 1100, 1600},
		Q:   []graph.NodeID{5, 25, 125, 325, 625, 1025},
		Phi: 0.5, Agg: "max", Algo: "rlist", Engine: "PHL",
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			req := httptest.NewRequest(http.MethodPost, "/fann", bytes.NewReader(body))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				b.Errorf("status %d: %s", rec.Code, rec.Body.String())
				return
			}
		}
	})
}

// BenchmarkServerThroughput measures concurrent /fann queries per second
// over the pooled, lock-free request path. Run with -cpu 1,2,4,8 to see
// the scaling; compare against BenchmarkServerThroughputSerialized (the
// old single-mutex architecture) at the same -cpu for the speedup.
func BenchmarkServerThroughput(b *testing.B) {
	benchThroughput(b, false)
}

// BenchmarkServerThroughputSerialized is the pre-pool baseline: identical
// work, but every request serializes behind one process-wide mutex.
func BenchmarkServerThroughputSerialized(b *testing.B) {
	benchThroughput(b, true)
}

// BenchmarkDistEndpoint measures /dist, whose per-request O(|V|) Dijkstra
// state is pooled rather than reallocated.
func BenchmarkDistEndpoint(b *testing.B) {
	h := benchHandler(b, false)
	body, err := json.Marshal(DistRequest{U: 3, V: 2400})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			req := httptest.NewRequest(http.MethodPost, "/dist", bytes.NewReader(body))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				b.Errorf("status %d", rec.Code)
				return
			}
		}
	})
}
