package core

import (
	"errors"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"fannr/internal/graph"
)

// canonGraph is big enough for hot_ier-sized sets of distinct ids.
func canonGraph(t testing.TB) *graph.Graph {
	t.Helper()
	g, err := graph.Generate(graph.GenConfig{Nodes: 2000, Seed: 5, Name: "canon"})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// drawSet returns n ids below limit in random order: distinct, or with
// about a third of them repeated somewhere when dups is set.
func drawSet(rng *rand.Rand, n, limit int, dups bool) []graph.NodeID {
	out := make([]graph.NodeID, 0, n)
	for _, v := range rng.Perm(limit)[:n] {
		out = append(out, graph.NodeID(v))
	}
	if dups {
		for i := 0; i < n/3; i++ {
			out = append(out, out[rng.Intn(n)])
		}
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	}
	return out
}

// The digest Validate's pass leaves behind is FingerprintNodes of the
// raw ids, it is blind to order and multiplicity, and the deduplicated
// sets are in exactly dedupeNodes' first-occurrence order.
func TestValidateFingerprintsAndOrder(t *testing.T) {
	g := canonGraph(t)
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		dups := trial%2 == 1
		rawP := drawSet(rng, 1+rng.Intn(200), g.NumNodes(), dups)
		rawQ := drawSet(rng, 1+rng.Intn(130), g.NumNodes(), dups)
		keepP, keepQ := slices.Clone(rawP), slices.Clone(rawQ)

		q := Query{P: rawP, Q: rawQ, Phi: 0.5}
		if trial%3 == 0 {
			q.Scratch = NewScratch()
		}
		if err := q.Validate(g); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(rawP, keepP) || !slices.Equal(rawQ, keepQ) {
			t.Fatal("Validate wrote to the caller's slices")
		}
		if !slices.Equal(q.P, dedupeNodes(keepP)) || !slices.Equal(q.Q, dedupeNodes(keepQ)) {
			t.Fatalf("trial %d: deduplicated order differs from dedupeNodes", trial)
		}
		if !dups && (&q.P[0] != &rawP[0] || &q.Q[0] != &rawQ[0]) {
			t.Fatal("a duplicate-free set was copied")
		}
		fpP, fpQ := q.Fingerprints()
		if fpP != FingerprintNodes(keepP) || fpQ != FingerprintNodes(keepQ) {
			t.Fatalf("trial %d: Validate's digests differ from FingerprintNodes of the raw ids", trial)
		}
		// Same sets, other order and multiplicity.
		shuffled := slices.Clone(q.P)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		shuffled = append(shuffled, shuffled[0])
		if FingerprintNodes(shuffled) != fpP {
			t.Fatalf("trial %d: fingerprint depends on order or multiplicity", trial)
		}
		if fpP == fpQ && !slices.Equal(q.P, q.Q) {
			t.Fatalf("trial %d: P and Q collide", trial)
		}
	}
	if FingerprintNodes(nil) != FingerprintNodes([]graph.NodeID{}) {
		t.Fatal("nil and empty sets digest differently")
	}
}

// Validating a canonical query again changes nothing and allocates
// nothing, with a Scratch or without.
func TestValidateCanonicalIsFree(t *testing.T) {
	g := canonGraph(t)
	rng := rand.New(rand.NewSource(12))
	for _, scratch := range []*Scratch{nil, NewScratch()} {
		q := Query{P: drawSet(rng, 169, g.NumNodes(), true), Q: drawSet(rng, 128, g.NumNodes(), false), Phi: 0.5, Scratch: scratch}
		if err := q.Validate(g); err != nil {
			t.Fatal(err)
		}
		before := q
		allocs := testing.AllocsPerRun(50, func() {
			if err := q.Validate(g); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("Validate of a canonical query allocates %v times", allocs)
		}
		if &q.P[0] != &before.P[0] || &q.Q[0] != &before.Q[0] || q.canonP != before.canonP || q.canonQ != before.canonQ {
			t.Error("Validate of a canonical query changed it")
		}
		// The cheap checks are not skipped.
		q.Phi = 2
		if err := q.Validate(g); !errors.Is(err, ErrInvalid) {
			t.Errorf("φ = 2 on a canonical query: err = %v", err)
		}
	}
}

// A first validation of a duplicate-free query with a warm buffer costs
// no allocation either: the sort runs in the Scratch's buffer or a
// pooled one, never through a map.
func TestValidateCleanSetsAllocNothing(t *testing.T) {
	g := canonGraph(t)
	rng := rand.New(rand.NewSource(13))
	P, Q := drawSet(rng, 169, g.NumNodes(), false), drawSet(rng, 128, g.NumNodes(), false)
	for _, scratch := range []*Scratch{nil, NewScratch()} {
		allocs := testing.AllocsPerRun(50, func() {
			q := Query{P: P, Q: Q, Phi: 0.5, Scratch: scratch}
			if err := q.Validate(g); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("scratch=%v: Validate of clean sets allocates %v times", scratch != nil, allocs)
		}
	}
}

// The canonical mark is tied to the slices: a set swapped in after
// Validate is validated (and fingerprinted) afresh, and so is the same
// query against a smaller graph.
func TestValidateNoticesReplacedSets(t *testing.T) {
	g := canonGraph(t)
	q := Query{P: []graph.NodeID{1, 2, 3}, Q: []graph.NodeID{4, 5}, Phi: 1}
	if err := q.Validate(g); err != nil {
		t.Fatal(err)
	}
	q.P = []graph.NodeID{7, 8, 7}
	if fp, _ := q.Fingerprints(); fp != FingerprintNodes([]graph.NodeID{8, 7}) {
		t.Fatal("Fingerprints served the replaced P its predecessor's digest")
	}
	if err := q.Validate(g); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(q.P, []graph.NodeID{7, 8}) {
		t.Fatalf("replaced P not deduplicated: %v", q.P)
	}
	q.Q = []graph.NodeID{4, 99999}
	if err := q.Validate(g); !errors.Is(err, ErrInvalid) {
		t.Fatalf("replaced Q not range-checked: err = %v", err)
	}
	small, err := graph.Generate(graph.GenConfig{Nodes: 100, Seed: 5, Name: "small"})
	if err != nil {
		t.Fatal(err)
	}
	q = Query{P: []graph.NodeID{1, 1500}, Q: []graph.NodeID{4}, Phi: 1}
	if err := q.Validate(g); err != nil {
		t.Fatal(err)
	}
	if err := q.Validate(small); !errors.Is(err, ErrInvalid) {
		t.Fatalf("canonical against 2000 nodes passed for %d: err = %v", small.NumNodes(), err)
	}
}

// A range error names the first offender in the order the caller wrote,
// P before Q, and leaves the query as it was.
func TestValidateRangeErrorNamesFirstOffender(t *testing.T) {
	g := canonGraph(t)
	for _, tc := range []struct {
		p, q []graph.NodeID
		want string
	}{
		{[]graph.NodeID{5, 5, 9000, -2}, []graph.NodeID{-7}, "data point 9000 outside graph"},
		{[]graph.NodeID{5, -2, 9000}, []graph.NodeID{1}, "data point -2 outside graph"},
		{[]graph.NodeID{5, 5}, []graph.NodeID{1, 2000, -1}, "query point 2000 outside graph"},
	} {
		q := Query{P: tc.p, Q: tc.q, Phi: 1}
		err := q.Validate(g)
		if !errors.Is(err, ErrInvalid) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("P=%v Q=%v: err = %v, want %q", tc.p, tc.q, err, tc.want)
		}
		if len(q.P) != len(tc.p) || len(q.Q) != len(tc.q) {
			t.Errorf("P=%v Q=%v: a failed Validate rewrote the query", tc.p, tc.q)
		}
	}
}

// BuildPTree called directly — the facade path, with no Validate before
// it — still deduplicates, and Dispatch's IER path over a duplicated P
// answers as over the distinct one.
func TestBuildPTreeStillDedupes(t *testing.T) {
	g := canonGraph(t)
	P := []graph.NodeID{10, 20, 10, 30, 20, 40}
	if n := BuildPTree(g, P).Len(); n != 4 {
		t.Fatalf("BuildPTree indexed %d points of 4 distinct", n)
	}
	Q := []graph.NodeID{50, 60, 70}
	dup, err := Dispatch(g, "ier", NewINE(g), Query{P: P, Q: Q, Phi: 1, Agg: Sum}, 4)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := Dispatch(g, "ier", NewINE(g), Query{P: dedupeNodes(P), Q: Q, Phi: 1, Agg: Sum}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(dup) != 4 || len(clean) != 4 {
		t.Fatalf("top-4 over 4 distinct points returned %d and %d answers", len(dup), len(clean))
	}
	for i := range dup {
		if dup[i].P != clean[i].P || dup[i].Dist != clean[i].Dist {
			t.Fatalf("rank %d: %+v over duplicated P, %+v over distinct", i, dup[i], clean[i])
		}
	}
}

// BenchmarkCanonicalise prices what one request's two sets cost to
// canonicalise and fingerprint (169 + 128 ids, hot_ier's shape): the one
// sort per set Validate does now, against the sequence it replaced — a
// map dedup per set, then a reflection-swapping sort.Slice per
// fingerprint.
func BenchmarkCanonicalise(b *testing.B) {
	g := canonGraph(b)
	rng := rand.New(rand.NewSource(14))
	P, Q := drawSet(rng, 169, g.NumNodes(), false), drawSet(rng, 128, g.NumNodes(), false)
	b.Run("sort-once", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			q := Query{P: P, Q: Q, Phi: 0.5}
			if err := q.Validate(g); err != nil {
				b.Fatal(err)
			}
			q.Fingerprints()
		}
	})
	b.Run("map-then-sort.Slice", func(b *testing.B) {
		oldFingerprint := func(ids []graph.NodeID) Fingerprint {
			s := slices.Clone(ids)
			sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
			return fingerprintSorted(slices.Compact(s))
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			oldFingerprint(dedupeNodes(P))
			oldFingerprint(dedupeNodes(Q))
		}
	})
}
