package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"net/http/httptest"
	"slices"
	"testing"

	"fannr/internal/graph"
	"fannr/internal/gtree"
	"fannr/internal/resil"
	"fannr/internal/shard"
)

// flagSurface lists a FlagSet's flags as name=default, sorted.
func flagSurface(fs *flag.FlagSet) []string {
	var out []string
	fs.VisitAll(func(f *flag.Flag) { out = append(out, f.Name+"="+f.DefValue) })
	return out
}

// TestFlagSurface pins the command line: a flag added, dropped or given
// another default must edit this list. bench/ launches the binary with
// -addr -mode -shards -max-fanout -engines.
func TestFlagSurface(t *testing.T) {
	want := []string{
		"addr=:8080",
		"breaker-cooldown=5s",
		"breaker-threshold=3",
		"cache-entries=4096",
		"dataset=NW",
		"drain-timeout=15s",
		"engines=INE",
		"max-fanout=4",
		"mode=all",
		"scale=0.015625",
		"shard-id=0",
		"shards=4",
		"targets=",
	}
	if got := flagSurface(newFlags(&config{})); !slices.Equal(got, want) {
		t.Fatalf("flags\n got %q\nwant %q", got, want)
	}
}

// downTransport fails every call.
type downTransport struct{}

func (downTransport) Call(context.Context, *shard.Request) (*shard.Response, error) {
	return nil, errors.New("down")
}
func (downTransport) Target() string { return "down" }

// TestBreakerFlags: -breaker-threshold means on fannr-shard what it means
// on fannr-server — 0 disables the breakers — and the default trips, as
// /readyz reports it.
func TestBreakerFlags(t *testing.T) {
	g, err := graph.Generate(graph.GenConfig{Nodes: 200, Seed: 3, Name: "flags"})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := gtree.Build(g, gtree.Options{})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := shard.NewPlan(g, tr, shard.PlanOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		want resil.State
	}{
		{nil, resil.Open},
		{[]string{"-breaker-threshold", "0"}, resil.Closed},
		{[]string{"-breaker-threshold", "0", "-breaker-cooldown", "0"}, resil.Closed},
		{[]string{"-breaker-threshold", "1", "-breaker-cooldown", "0"}, resil.Open},
	} {
		var cfg config
		if err := newFlags(&cfg).Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		coord, err := shard.NewCoordinator(plan, []shard.Transport{downTransport{}, downTransport{}}, coordinatorOptions(cfg))
		if err != nil {
			t.Fatal(err)
		}
		coord.TripShard(0)
		rr := httptest.NewRecorder()
		coord.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/readyz", nil))
		var ready struct{ Shards []struct{ Breaker string } }
		if err := json.Unmarshal(rr.Body.Bytes(), &ready); err != nil || len(ready.Shards) != 2 {
			t.Fatalf("%q: /readyz body %s: %v", tc.args, rr.Body, err)
		}
		if got := ready.Shards[0].Breaker; got != tc.want.String() {
			t.Errorf("%q: shard breaker %v after a trip, want %v", tc.args, got, tc.want)
		}
	}
}
