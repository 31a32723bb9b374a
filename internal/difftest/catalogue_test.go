package difftest

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"fannr/internal/core"
	"fannr/internal/graph"
	"fannr/internal/server"
	"fannr/internal/shard"
)

// catalogueTiers are the three ways a binary turns an engine name into a
// served engine: cmd/fannr builds the engine itself, fannr-server starts a
// server over its indexes, fannr-shard adds the catalogue to each host.
// Each answers one GD query through the named engine and returns d*.
var catalogueTiers = []struct {
	name string
	run  func(g *graph.Graph, ix core.Indexes, engine string, q core.Query) (float64, error)
}{
	{"fannr", func(g *graph.Graph, ix core.Indexes, engine string, q core.Query) (float64, error) {
		f, err := core.Engine(engine, g, ix)
		if err != nil {
			return 0, err
		}
		a, err := core.GD(g, f(), q, 1)
		if err != nil {
			return 0, err
		}
		return a[0].Dist, nil
	}},
	{"fannr-server", func(g *graph.Graph, ix core.Indexes, engine string, q core.Query) (float64, error) {
		srv, err := server.New(g, server.Options{Indexes: ix})
		if err != nil {
			return 0, err
		}
		body, _ := json.Marshal(server.FANNRequest{P: q.P, Q: q.Q, Phi: q.Phi, Algo: "gd", Engine: engine})
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/fann", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			var e server.ErrorResponse
			_ = json.NewDecoder(rec.Body).Decode(&e)
			return 0, errors.New(e.Error)
		}
		var resp server.FANNResponse
		if err := json.NewDecoder(rec.Body).Decode(&resp); err != nil {
			return 0, err
		}
		return resp.Answers[0].Dist, nil
	}},
	{"fannr-shard", func(g *graph.Graph, ix core.Indexes, engine string, q core.Query) (float64, error) {
		h := shard.NewHost(0, g, shard.HostOptions{})
		if err := h.AddCatalogue(ix); err != nil {
			return 0, err
		}
		resp, err := h.Execute(context.Background(), &shard.Request{P: q.P, Q: q.Q, Phi: q.Phi, Algo: "gd", Engine: engine})
		if err != nil {
			return 0, err
		}
		return resp.Answers[0].Dist, nil
	}},
}

// TestCatalogueThreeTiers holds every catalogue name to one table on each
// tier: over a graph with coordinates and every index it answers like
// Brute; over a coordinate-free graph every IER-* name fails for want of
// coordinates and every other name still answers; and without the index
// it searches a name fails naming that index, not as an unknown engine.
func TestCatalogueThreeTiers(t *testing.T) {
	g, err := graph.Generate(graph.GenConfig{Nodes: 300, Seed: 12, Name: "catalogue"})
	if err != nil {
		t.Fatal(err)
	}
	b := graph.NewBuilder(g.NumNodes())
	for _, e := range g.Edges(nil) {
		if err := b.AddEdge(e.U, e.V, e.W); err != nil {
			t.Fatal(err)
		}
	}
	flat, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	every := []core.Index{core.PHLIndex, core.GTreeIndex}
	full, err := server.BuildIndexes(g, every)
	if err != nil {
		t.Fatal(err)
	}
	flatFull, err := server.BuildIndexes(flat, every)
	if err != nil {
		t.Fatal(err)
	}
	q := core.Query{P: []graph.NodeID{3, 40, 90, 150, 220, 280}, Q: []graph.NodeID{7, 60, 120, 200}, Phi: 0.5, Agg: core.Max}
	want, err := core.Brute(g, q)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range core.EngineNames() {
		x, err := core.EngineIndex(name)
		if err != nil {
			t.Fatal(err)
		}
		ier := strings.HasPrefix(name, "IER-")
		for _, tier := range catalogueTiers {
			label := tier.name + "/" + name
			if d, err := tier.run(g, full, name, q); err != nil || !closeTo(d, want.Dist) {
				t.Errorf("%s: d* = %v, err %v; Brute %v", label, d, err, want.Dist)
			}
			_, err := tier.run(flat, flatFull, name, q)
			switch {
			case ier && (err == nil || !strings.Contains(err.Error(), "needs coordinates")):
				t.Errorf("%s without coordinates: err %v, want needs coordinates", label, err)
			case !ier && err != nil:
				t.Errorf("%s without coordinates: %v", label, err)
			}
			if x == core.NoIndex {
				continue
			}
			_, err = tier.run(g, core.Indexes{}, name, q)
			if err == nil || !strings.Contains(err.Error(), "needs the "+x.String()+" index") || strings.Contains(err.Error(), "unknown engine") {
				t.Errorf("%s without its index: err %v, want needs the %s index", label, err, x)
			}
		}
	}
}
