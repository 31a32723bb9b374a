package core

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"fannr/internal/graph"
)

// Duplicate entries in Q must not change the answer: Validate
// canonicalizes both point sets, so k = ⌈φ|Q|⌉ is computed over distinct
// query points and every engine sees the same multiplicity-free Q. This
// pins the dedup semantics the HTTP server and the differential harness
// rely on.
func TestValidateDedupesQueryPoints(t *testing.T) {
	env := newTestEnv(t, 400, 77)
	clean := Query{
		P:   []graph.NodeID{10, 40, 90, 160, 250},
		Q:   []graph.NodeID{5, 25, 65, 125},
		Phi: 0.5,
		Agg: Max,
	}
	dirty := Query{
		P:   []graph.NodeID{10, 40, 10, 90, 160, 250, 40},
		Q:   []graph.NodeID{5, 25, 5, 5, 65, 125, 25},
		Phi: 0.5,
		Agg: Max,
	}
	want, err := Brute(env.g, clean)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Brute(env.g, dirty)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Dist-want.Dist) > 1e-9 {
		t.Fatalf("duplicates changed the answer: %v vs %v", got.Dist, want.Dist)
	}
	// K is computed over distinct members once validated.
	q := dirty
	if err := q.Validate(env.g); err != nil {
		t.Fatal(err)
	}
	if len(q.Q) != 4 || len(q.P) != 5 {
		t.Fatalf("dedup left |Q|=%d |P|=%d, want 4 and 5", len(q.Q), len(q.P))
	}
	if q.K() != 2 {
		t.Fatalf("K() = %d over deduped Q, want 2", q.K())
	}
	// First occurrences win, order preserved.
	for i, v := range []graph.NodeID{5, 25, 65, 125} {
		if q.Q[i] != v {
			t.Fatalf("deduped Q = %v, want [5 25 65 125]", q.Q)
		}
	}
	// Every algorithm agrees on the dirty query.
	for _, gp := range env.engines[:3] {
		for _, run := range []struct {
			name string
			fn   func() (Answer, error)
		}{
			{"GD", func() (Answer, error) { return first(GD(env.g, gp, dirty, 1)) }},
			{"RList", func() (Answer, error) { return first(RList(env.g, gp, dirty, 1)) }},
			{"ExactMax", func() (Answer, error) { return first(ExactMax(env.g, gp, dirty, 1)) }},
		} {
			ans, err := run.fn()
			if err != nil {
				t.Fatalf("%s/%s on dirty query: %v", run.name, gp.Name(), err)
			}
			if math.Abs(ans.Dist-want.Dist) > 1e-6*(1+want.Dist) {
				t.Fatalf("%s/%s: dist %v on dirty query, want %v", run.name, gp.Name(), ans.Dist, want.Dist)
			}
			if len(ans.Subset) != 2 {
				t.Fatalf("%s/%s: subset %v, want 2 distinct members", run.name, gp.Name(), ans.Subset)
			}
		}
	}
}

// Validate must not mutate the caller's slices when deduping.
func TestValidateDedupePreservesCallerSlices(t *testing.T) {
	g, err := graph.Generate(graph.GenConfig{Nodes: 100, Seed: 8, Name: "dd"})
	if err != nil {
		t.Fatal(err)
	}
	p := []graph.NodeID{1, 2, 1, 3}
	qq := []graph.NodeID{4, 4, 5}
	q := Query{P: p, Q: qq, Phi: 1, Agg: Sum}
	if err := q.Validate(g); err != nil {
		t.Fatal(err)
	}
	if p[2] != 1 || qq[1] != 4 {
		t.Fatalf("Validate mutated caller slices: P=%v Q=%v", p, qq)
	}
	if len(q.P) != 3 || len(q.Q) != 2 {
		t.Fatalf("deduped to |P|=%d |Q|=%d, want 3 and 2", len(q.P), len(q.Q))
	}
	// A duplicate-free query keeps its original backing arrays.
	clean := Query{P: []graph.NodeID{1, 2}, Q: []graph.NodeID{3, 4}, Phi: 1}
	origP, origQ := &clean.P[0], &clean.Q[0]
	if err := clean.Validate(g); err != nil {
		t.Fatal(err)
	}
	if &clean.P[0] != origP || &clean.Q[0] != origQ {
		t.Fatal("Validate reallocated duplicate-free slices")
	}
}

// Validation failures must be classifiable via errors.Is(err, ErrInvalid).
func TestValidationErrorsWrapErrInvalid(t *testing.T) {
	g, err := graph.Generate(graph.GenConfig{Nodes: 100, Seed: 9, Name: "inv"})
	if err != nil {
		t.Fatal(err)
	}
	gp := NewINE(g)
	cases := []struct {
		name string
		err  error
	}{
		{"empty P", func() error { q := Query{Q: []graph.NodeID{1}, Phi: 1}; return q.Validate(g) }()},
		{"empty Q", func() error { q := Query{P: []graph.NodeID{1}, Phi: 1}; return q.Validate(g) }()},
		{"bad phi", func() error { q := Query{P: []graph.NodeID{1}, Q: []graph.NodeID{2}, Phi: 0}; return q.Validate(g) }()},
		{"p out of range", func() error {
			q := Query{P: []graph.NodeID{9999}, Q: []graph.NodeID{2}, Phi: 1}
			return q.Validate(g)
		}()},
		{"ExactMax sum", func() error {
			_, err := ExactMax(g, gp, Query{P: []graph.NodeID{1}, Q: []graph.NodeID{2}, Phi: 1, Agg: Sum}, 1)
			return err
		}()},
		{"APXSum max", func() error {
			_, err := APXSum(g, gp, Query{P: []graph.NodeID{1}, Q: []graph.NodeID{2}, Phi: 1, Agg: Max}, 1)
			return err
		}()},
		{"k < 1", func() error {
			_, err := GD(g, gp, Query{P: []graph.NodeID{1}, Q: []graph.NodeID{2}, Phi: 1}, 0)
			return err
		}()},
	}
	for _, c := range cases {
		if c.err == nil {
			t.Fatalf("%s: no error", c.name)
		}
		if !errors.Is(c.err, ErrInvalid) {
			t.Fatalf("%s: %v does not wrap ErrInvalid", c.name, c.err)
		}
	}
}

// BindContext wires Cancel to a context; every algorithm must abort with
// ErrCanceled once the context is done.
func TestBindContextCancelsAlgorithms(t *testing.T) {
	env := newTestEnv(t, 400, 78)
	base := Query{
		P:   []graph.NodeID{10, 40, 90, 160, 250, 320},
		Q:   []graph.NodeID{5, 25, 65, 125},
		Phi: 0.5,
	}
	gp := env.engines[0]
	runs := []struct {
		name string
		fn   func(q Query) error
	}{
		{"GD", func(q Query) error { q.Agg = Max; _, err := GD(env.g, gp, q, 1); return err }},
		{"RList", func(q Query) error { q.Agg = Max; _, err := RList(env.g, gp, q, 1); return err }},
		{"ExactMax", func(q Query) error { q.Agg = Max; _, err := ExactMax(env.g, gp, q, 1); return err }},
		{"APXSum", func(q Query) error { q.Agg = Sum; _, err := APXSum(env.g, gp, q, 1); return err }},
		{"GD k=2", func(q Query) error { q.Agg = Sum; _, err := GD(env.g, gp, q, 2); return err }},
		{"ExactMax k=2", func(q Query) error { q.Agg = Max; _, err := ExactMax(env.g, gp, q, 2); return err }},
		{"Brute", func(q Query) error { q.Agg = Max; _, err := Brute(env.g, q); return err }},
	}
	for _, run := range runs {
		// Already-done context: abort before any work.
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		q := base
		stop := q.BindContext(ctx)
		err := run.fn(q)
		stop()
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("%s under canceled context: err = %v, want ErrCanceled", run.name, err)
		}
		// Live context: query runs to completion.
		ctx2, cancel2 := context.WithTimeout(context.Background(), time.Minute)
		q2 := base
		stop2 := q2.BindContext(ctx2)
		if err := run.fn(q2); err != nil {
			t.Fatalf("%s under live context: %v", run.name, err)
		}
		stop2()
		cancel2()
	}
}

// A context without a Done channel must clear Cancel (no polling cost).
func TestBindContextBackground(t *testing.T) {
	q := Query{Cancel: func() bool { return true }}
	stop := q.BindContext(context.Background())
	defer stop()
	if q.Cancel != nil {
		t.Fatal("background context left a Cancel hook")
	}
}
