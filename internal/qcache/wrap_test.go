package qcache

import (
	"math"
	"testing"

	"fannr/internal/core"
	"fannr/internal/graph"
	"fannr/internal/phl"
	"fannr/internal/sp"
)

// first is the one answer of a k = 1 query.
func first(answers []core.Answer, err error) (core.Answer, error) {
	if err != nil {
		return core.Answer{}, err
	}
	return answers[0], nil
}

// stubEngine is a deterministic GPhi+NeighborSearcher over a fixed
// neighbor table, counting substrate calls so tests can assert elision.
type stubEngine struct {
	table map[graph.NodeID][]sp.Neighbor
	calls int
}

func (s *stubEngine) Name() string           { return "stub" }
func (s *stubEngine) Reset(Q []graph.NodeID) {}
func (s *stubEngine) knn(p graph.NodeID, k int) []sp.Neighbor {
	s.calls++
	nbrs := s.table[p]
	if k > len(nbrs) {
		k = len(nbrs)
	}
	return nbrs[:k]
}
func (s *stubEngine) Dist(p graph.NodeID, k int, agg core.Aggregate) (float64, bool) {
	return core.AggSorted(s.knn(p, k), k, agg)
}
func (s *stubEngine) Subset(p graph.NodeID, k int, dst []graph.NodeID) []graph.NodeID {
	for _, nb := range s.knn(p, k) {
		dst = append(dst, nb.Node)
	}
	return dst
}
func (s *stubEngine) KNearest(p graph.NodeID, k int, dst []sp.Neighbor) []sp.Neighbor {
	return append(dst, s.knn(p, k)...)
}

func TestWrapPassthroughWhenUnsupported(t *testing.T) {
	var c *Cache
	inner := &stubEngine{}
	if got := c.Wrap(inner); got != core.GPhi(inner) {
		t.Fatalf("nil cache should return inner unchanged")
	}
	c = New(Config{MaxEntries: 8})
	type bare struct{ core.GPhi }
	plain := bare{inner}
	if got := c.Wrap(plain); got != core.GPhi(plain) {
		t.Fatalf("engine without KNearest should pass through")
	}
}

func TestWrapServesPrefixesAndCompleteLists(t *testing.T) {
	c := New(Config{MaxEntries: 64})
	stub := &stubEngine{table: map[graph.NodeID][]sp.Neighbor{
		1: {{Node: 10, Dist: 1}, {Node: 11, Dist: 2}, {Node: 12, Dist: 3}},
		2: {{Node: 10, Dist: 5}}, // only one member of Q reachable
	}}
	var stats core.Stats
	w := c.Wrap(stub)
	core.BindStats(w, &stats)
	// Bound twice: lists are stored from the second binding of a Q on
	// (at first sight a miss is evaluated and nothing is kept —
	// TestFirstSightStoresNothing), and this test is about stored lists.
	w.Reset([]graph.NodeID{10, 11, 12})
	w.Reset([]graph.NodeID{10, 11, 12})

	// Cold fill at k=3, then every k' ≤ 3 and the subset come from cache.
	if d, ok := w.Dist(1, 3, core.Sum); !ok || d != 6 {
		t.Fatalf("cold Dist = %v ok=%v", d, ok)
	}
	callsAfterFill := stub.calls
	if d, ok := w.Dist(1, 2, core.Max); !ok || d != 2 {
		t.Fatalf("warm Dist = %v ok=%v", d, ok)
	}
	if got := w.Subset(1, 3, nil); len(got) != 3 || got[0] != 10 || got[2] != 12 {
		t.Fatalf("warm Subset = %v", got)
	}
	if nb := w.(core.NeighborSearcher).KNearest(1, 1, nil); len(nb) != 1 || nb[0].Node != 10 {
		t.Fatalf("warm KNearest = %v", nb)
	}
	if stub.calls != callsAfterFill {
		t.Fatalf("warm lookups reached the engine: %d calls after %d", stub.calls, callsAfterFill)
	}
	if stats.CacheHits != 3 || stats.CacheMisses != 1 {
		t.Fatalf("stats %+v", stats)
	}

	// Unreachable tail: k=4 asked, 1 returned, marked complete — a later
	// k=2 is answered from the complete list without recompute and the
	// fold still reports unreachable.
	if d, ok := w.Dist(2, 4, core.Max); ok || !math.IsInf(d, 1) {
		t.Fatalf("unreachable Dist = %v ok=%v", d, ok)
	}
	calls := stub.calls
	if d, ok := w.Dist(2, 2, core.Max); ok || !math.IsInf(d, 1) {
		t.Fatalf("unreachable warm Dist = %v ok=%v", d, ok)
	}
	if got := w.Subset(2, 2, nil); len(got) != 1 || got[0] != 10 {
		t.Fatalf("unreachable Subset = %v", got)
	}
	if stub.calls != calls {
		t.Fatalf("complete list not reused")
	}
}

func TestWrapAgreesWithRawEngines(t *testing.T) {
	g, err := graph.Generate(graph.GenConfig{Nodes: 200, Seed: 77, Name: "wrap"})
	if err != nil {
		t.Fatal(err)
	}
	engines := []core.GPhi{core.NewINE(g), core.NewOracleGPhi("A*", sp.NewAStar(g))}
	P := []graph.NodeID{3, 17, 42, 99, 140, 181}
	Q := []graph.NodeID{5, 60, 120, 150, 199}
	for _, raw := range engines {
		c := New(Config{MaxEntries: 1024})
		for pass := 0; pass < 2; pass++ {
			// Descending φ so pass 0 fills at the largest k and smaller k
			// are subsumption hits even within the first pass.
			for _, phi := range []float64{1.0, 0.75, 0.5, 0.25, 0.01} {
				q := core.Query{P: P, Q: Q, Phi: phi, Agg: core.Sum}
				want, errW := first(core.GD(g, raw, q, 1))
				warm := c.Wrap(raw)
				got, errG := first(core.GD(g, warm, q, 1))
				if (errW == nil) != (errG == nil) {
					t.Fatalf("%s φ=%v: err %v vs %v", raw.Name(), phi, errW, errG)
				}
				if errW != nil {
					continue
				}
				if got.P != want.P || math.Abs(got.Dist-want.Dist) > 1e-9*(1+want.Dist) {
					t.Fatalf("%s φ=%v: warm (%d, %v) vs raw (%d, %v)",
						raw.Name(), phi, got.P, got.Dist, want.P, want.Dist)
				}
			}
		}
		if m := c.Metrics(); m.HitsSubsume == 0 {
			t.Fatalf("%s: no subsumption hits recorded: %+v", raw.Name(), m)
		}
	}
}

// A wrapper reset through core's solve (which hands it the fingerprint
// Query.Validate computed) and one reset by hand through Reset (which
// sorts Q itself) key the list layer identically: the second finds every
// list the first stored, for a Q given in another order with a repeat.
func TestWrapResetFingerprintedKeysLikeReset(t *testing.T) {
	g, err := graph.Generate(graph.GenConfig{Nodes: 200, Seed: 78, Name: "wrapfp"})
	if err != nil {
		t.Fatal(err)
	}
	c := New(Config{MaxEntries: 1024})
	P := []graph.NodeID{3, 17, 42, 99}
	// Twice: the first sight of a Q stores no lists, the second fills.
	for sight := 0; sight < 2; sight++ {
		if _, err := core.GD(g, c.Wrap(core.NewINE(g)), core.Query{P: P, Q: []graph.NodeID{5, 60, 120, 150}, Phi: 1, Agg: core.Sum}, 1); err != nil {
			t.Fatal(err)
		}
	}
	filled := c.Metrics()
	if filled.Entries != int64(len(P)) {
		t.Fatalf("second sight stored %d lists, want %d", filled.Entries, len(P))
	}
	byHand := c.Wrap(core.NewINE(g))
	byHand.Reset([]graph.NodeID{150, 5, 120, 60, 5})
	for _, p := range P {
		if _, ok := byHand.Dist(p, 4, core.Sum); !ok {
			t.Fatalf("no distance for %d", p)
		}
	}
	after := c.Metrics()
	if hits := after.HitsSubsume - filled.HitsSubsume; hits != int64(len(P)) || after.MissesList != filled.MissesList {
		t.Fatalf("hand-reset wrapper: %d list hits of %d, %d new misses", hits, len(P), after.MissesList-filled.MissesList)
	}
}

// TestWrapPrefixMatchesLiveEngineUnderTies: the oracle engines order only
// the k-prefix they are asked for, so a list cached at k must still
// answer every k' ≤ k exactly as a live engine asked for k' would — same
// nodes, same order, same bits — even on a unit-weight grid, where most
// k-th places are tied.
func TestWrapPrefixMatchesLiveEngineUnderTies(t *testing.T) {
	const side = 10
	b := graph.NewBuilder(side * side)
	for v := 0; v < side*side; v++ {
		if v%side+1 < side {
			_ = b.AddEdge(graph.NodeID(v), graph.NodeID(v+1), 1)
		}
		if v+side < side*side {
			_ = b.AddEdge(graph.NodeID(v), graph.NodeID(v+side), 1)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ix, err := phl.Build(g, phl.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var Q []graph.NodeID
	for v := 0; v < side*side; v += 3 {
		Q = append(Q, graph.NodeID(v))
	}
	c := New(Config{MaxEntries: 1024})
	warm, live := c.Wrap(core.NewOracleGPhi("PHL", ix)), core.NewOracleGPhi("PHL", ix)
	warm.Reset(Q) // first sight: nothing would be stored
	warm.Reset(Q) // second: the fill below is kept, which is what is under test
	live.Reset(Q)
	const kFill = 20
	for p := graph.NodeID(0); p < side*side; p += 7 {
		warm.(core.NeighborSearcher).KNearest(p, kFill, nil) // the one fill
		misses := c.Metrics().MissesList
		for k := kFill; k >= 1; k-- {
			got := warm.(core.NeighborSearcher).KNearest(p, k, nil)
			want := live.(core.NeighborSearcher).KNearest(p, k, nil)
			if len(got) != len(want) {
				t.Fatalf("p=%d k=%d: cached list has %d entries, live %d", p, k, len(got), len(want))
			}
			for i := range want {
				if got[i].Node != want[i].Node || math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
					t.Fatalf("p=%d k=%d: cached[%d] = %v, live = %v", p, k, i, got[i], want[i])
				}
			}
			for _, agg := range []core.Aggregate{core.Max, core.Sum} {
				gd, gok := warm.Dist(p, k, agg)
				wd, wok := live.Dist(p, k, agg)
				if gok != wok || math.Float64bits(gd) != math.Float64bits(wd) {
					t.Fatalf("p=%d k=%d %v: cached Dist = (%v, %v), live = (%v, %v)", p, k, agg, gd, gok, wd, wok)
				}
			}
		}
		if m := c.Metrics().MissesList; m != misses {
			t.Fatalf("p=%d: %d list misses below the filled k, want 0", p, m-misses)
		}
	}
}

// TestFirstSightStoresNothing is the list layer's admission rule end to
// end: requests that each bring a Q the cache has never seen evaluate
// through the engine and store no list, so they evict nothing, while the
// result layer still keeps every answer; and the rule only governs what
// a miss does — a list that is resident is served even to a binding the
// doorkeeper takes for a first sight.
func TestFirstSightStoresNothing(t *testing.T) {
	g, err := graph.Generate(graph.GenConfig{Nodes: 200, Seed: 79, Name: "firstsight"})
	if err != nil {
		t.Fatal(err)
	}
	const fresh = 300
	c := New(Config{MaxEntries: 2048})
	raw := core.NewINE(g)
	P := []graph.NodeID{3, 17, 42, 99}
	solve := func(Q []graph.NodeID) (core.Answer, string) {
		t.Helper()
		w := c.Wrap(raw)
		q := core.Query{P: P, Q: Q, Phi: 1, Agg: core.Sum}
		ans, err := first(core.GD(g, w, q, 1))
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := first(core.GD(g, raw, q, 1)); ans.P != want.P || math.Float64bits(ans.Dist) != math.Float64bits(want.Dist) {
			t.Fatalf("Q=%v: (%d, %v) through the wrapper, (%d, %v) bare", Q, ans.P, ans.Dist, want.P, want.Dist)
		}
		return ans, ListMode(w)
	}

	kept := []graph.NodeID{5, 60, 120, 150}
	for sight, want := range []string{"first-sight", "fill"} {
		if _, mode := solve(kept); mode != want {
			t.Fatalf("sight %d of Q: lists %q, want %q", sight+1, mode, want)
		}
	}
	filled := c.Metrics()
	if filled.Entries != int64(len(P)) {
		t.Fatalf("second sight stored %d lists, want %d", filled.Entries, len(P))
	}

	for i := 0; i < fresh; i++ {
		Q := []graph.NodeID{graph.NodeID(i % 190), graph.NodeID(i%190 + 7), graph.NodeID((i / 190) + 198)}
		ans, mode := solve(Q)
		if mode != "first-sight" {
			t.Fatalf("fresh Q %v: lists %q", Q, mode)
		}
		c.PutResult(rkey("INE", 1, 3, FingerprintNodes(P), FingerprintNodes(Q)), []core.Answer{ans})
	}
	m := c.Metrics()
	if m.Evictions != 0 || m.HitsSubsume != filled.HitsSubsume {
		t.Fatalf("%d fresh Qs: %d evictions, %d list hits, want none of either", fresh, m.Evictions, m.HitsSubsume-filled.HitsSubsume)
	}
	if results := m.Entries - filled.Entries; results != fresh {
		t.Fatalf("%d fresh Qs added %d entries, want one result each and no list", fresh, results)
	}
	// Every evaluation and the winner's subset: computed, counted, not stored.
	if skips := m.ListSkips - filled.ListSkips; skips != fresh*int64(len(P)+1) || m.MissesList-filled.MissesList != skips {
		t.Fatalf("%d list skips, %d list misses, want %d of each", skips, m.MissesList-filled.MissesList, fresh*(len(P)+1))
	}
}

// TestFirstSightServesResidentLists: the doorkeeper has long forgotten
// the one Q whose lists are resident, so its next binding reads as a
// first sight — and is answered from those lists all the same.
func TestFirstSightServesResidentLists(t *testing.T) {
	c := New(Config{MaxEntries: 64})
	stub := &stubEngine{table: map[graph.NodeID][]sp.Neighbor{
		1: {{Node: 10, Dist: 1}, {Node: 11, Dist: 2}},
	}}
	Q := []graph.NodeID{10, 11}
	w := c.Wrap(stub)
	w.Reset(Q)
	w.Reset(Q)
	w.Dist(1, 2, core.Sum) // fills
	for i := 0; i < 1000; i++ {
		c.seenBound("stub", FingerprintNodes([]graph.NodeID{graph.NodeID(100 + i)}))
	}
	w.Reset(Q)
	if mode := ListMode(w); mode != "first-sight" {
		t.Fatalf("after 1000 other bindings the doorkeeper of a 64-entry cache still knows Q (lists %q)", mode)
	}
	calls := stub.calls
	if d, ok := w.Dist(1, 2, core.Sum); !ok || d != 3 {
		t.Fatalf("Dist = %v ok=%v", d, ok)
	}
	if stub.calls != calls || c.Metrics().HitsSubsume != 1 {
		t.Fatalf("resident list not served at first sight: %d engine calls, %+v", stub.calls-calls, c.Metrics())
	}
}

// TestDoorkeeperForgetsOnPurge: Purge empties the doorkeeper with the
// entries, so the binding after it is a first sight again, and the one
// after that fills.
func TestDoorkeeperForgetsOnPurge(t *testing.T) {
	c := New(Config{MaxEntries: 64})
	w := c.Wrap(&stubEngine{})
	Q := []graph.NodeID{10, 11, 12}
	for _, want := range []string{"first-sight", "fill", "fill"} {
		w.Reset(Q)
		if mode := ListMode(w); mode != want {
			t.Fatalf("lists %q, want %q", mode, want)
		}
	}
	// The digest covers the engine: another engine's binding of the same
	// Q is its own first sight.
	if c.seenBound("other", FingerprintNodes(Q)) {
		t.Fatal("a binding under another engine name was taken for a repeat")
	}
	c.Purge()
	for _, want := range []string{"first-sight", "fill"} {
		w.Reset(Q)
		if mode := ListMode(w); mode != want {
			t.Fatalf("after Purge: lists %q, want %q", mode, want)
		}
	}
	if ListMode(&stubEngine{}) != "" {
		t.Fatal("ListMode of an unwrapped engine is not empty")
	}
}

// TestWrapForwardsThresholdOnlyAtFirstSight pins where a search loop's
// threshold goes: to the engine on the path that stores nothing, where
// GD then abandons most of P exactly as it does over the bare engine;
// not on the fill path, whose lists must be whole; and not past a
// resident list, which answers in full whatever the threshold. All three
// sights return the bare engine's answer bit for bit.
func TestWrapForwardsThresholdOnlyAtFirstSight(t *testing.T) {
	g, err := graph.Generate(graph.GenConfig{Nodes: 400, Seed: 26, Name: "below"})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := phl.Build(g, phl.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := New(Config{MaxEntries: 4096})
	raw := core.NewOracleGPhi("PHL", ix)
	var P []graph.NodeID
	for v := 1; v < g.NumNodes(); v += 5 {
		P = append(P, graph.NodeID(v))
	}
	q := core.Query{P: P, Q: []graph.NodeID{7, 90, 180, 260, 333}, Phi: 0.6, Agg: core.Max}
	want, err := first(core.GD(g, raw, q, 1))
	if err != nil {
		t.Fatal(err)
	}
	for sight, wantMode := range []string{"first-sight", "fill", "fill"} {
		var st core.Stats
		w := c.Wrap(raw)
		core.BindStats(w, &st)
		qs := q
		qs.Stats = &st
		got, err := first(core.GD(g, w, qs, 1))
		core.BindStats(w, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got.P != want.P || math.Float64bits(got.Dist) != math.Float64bits(want.Dist) {
			t.Fatalf("sight %d: (%d, %v) through the wrapper, (%d, %v) bare", sight+1, got.P, got.Dist, want.P, want.Dist)
		}
		if mode := ListMode(w); mode != wantMode {
			t.Fatalf("sight %d: lists %q, want %q", sight+1, mode, wantMode)
		}
		if st.GPhiEvals != int64(len(P)) || (st.GPhiAbandoned > 0) != (sight == 0) {
			t.Fatalf("sight %d (%s): %d evaluations, %d abandoned; want |P| = %d and abandonment at first sight only", sight+1, wantMode, st.GPhiEvals, st.GPhiAbandoned, len(P))
		}
	}
	// A resident list answers under any threshold, even one it cannot meet.
	w := c.Wrap(raw)
	w.Reset(q.Q)
	full, _ := w.Dist(want.P, q.K(), q.Agg)
	if d, ok := w.(core.DistBelower).DistBelow(want.P, q.K(), q.Agg, 0); !ok || math.Float64bits(d) != math.Float64bits(full) {
		t.Fatalf("DistBelow(τ=0) over a resident list = (%v, %v), want the list's fold %v", d, ok, full)
	}
}
