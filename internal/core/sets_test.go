package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"fannr/internal/graph"
)

// validateBoth validates (P, Q) with the registry and without one and
// fails unless both end in the same state: error text, contents of q.P
// and q.Q, fingerprints.
func validateBoth(t testing.TB, g *graph.Graph, r *SetRegistry, P, Q []graph.NodeID) (with, bare Query) {
	t.Helper()
	with = Query{P: P, Q: Q, Phi: 0.5, Sets: r}
	bare = Query{P: P, Q: Q, Phi: 0.5}
	errWith, errBare := with.Validate(g), bare.Validate(g)
	if (errWith == nil) != (errBare == nil) || (errWith != nil && errWith.Error() != errBare.Error()) {
		t.Fatalf("Validate with a registry: %v; without: %v", errWith, errBare)
	}
	if !slices.Equal(with.P, bare.P) || !slices.Equal(with.Q, bare.Q) {
		t.Fatalf("canonical sets differ: P %v vs %v, Q %v vs %v", with.P, bare.P, with.Q, bare.Q)
	}
	wp, wq := with.Fingerprints()
	bp, bq := bare.Fingerprints()
	if wp != bp || wq != bq {
		t.Fatal("fingerprints differ between a registry and none")
	}
	return with, bare
}

// A list walks first sight → fill → hit, and at every sight Validate
// leaves what it leaves without a registry. A permuted and a
// duplicate-carrying re-send are other keys with the same fingerprint.
func TestSetRegistryThreeSights(t *testing.T) {
	g := canonGraph(t)
	rng := rand.New(rand.NewSource(21))
	for _, dups := range []bool{false, true} {
		r := NewSetRegistry()
		P, Q := drawSet(rng, 169, g.NumNodes(), dups), drawSet(rng, 128, g.NumNodes(), dups)
		keepP := slices.Clone(P)
		var fp Fingerprint
		for sight, want := range []SetSight{SetFirstSight, SetFill, SetHit, SetHit} {
			q, _ := validateBoth(t, g, r, P, Q)
			if q.PSight() != want || q.canonQ.sight != want {
				t.Fatalf("dups=%v sight %d: P %v, Q %v, want %v", dups, sight, q.PSight(), q.canonQ.sight, want)
			}
			if (q.pSet() != nil) != (want != SetFirstSight) {
				t.Fatalf("dups=%v sight %d: PSet() = %v", dups, sight, q.pSet())
			}
			if !dups && &q.P[0] != &P[0] {
				t.Fatalf("sight %d: a duplicate-free P was replaced", sight)
			}
			fp, _ = q.Fingerprints()
		}
		if !slices.Equal(P, keepP) {
			t.Fatal("Validate wrote to the caller's slice")
		}
		m := r.Metrics()
		if m.Hits != 4 || m.Fills != 2 || m.Skips != 2 || m.Entries != 2 || m.Evictions != 0 {
			t.Fatalf("dups=%v: metrics %+v", dups, m)
		}

		shuffled := slices.Clone(P)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		doubled := append(slices.Clone(P), P[0], P[len(P)/2])
		for _, resend := range [][]graph.NodeID{shuffled, doubled} {
			q, _ := validateBoth(t, g, r, resend, Q)
			if q.PSight() != SetFirstSight {
				t.Fatalf("a re-send in another form read %v", q.PSight())
			}
			if got, _ := q.Fingerprints(); got != fp {
				t.Fatal("a re-send in another form has another fingerprint")
			}
		}
	}
}

// A hit costs no allocation, with a duplicate in the list or without.
func TestValidateRegistryHitAllocs(t *testing.T) {
	g := canonGraph(t)
	rng := rand.New(rand.NewSource(22))
	for _, dups := range []bool{false, true} {
		r := NewSetRegistry()
		P, Q := drawSet(rng, 169, g.NumNodes(), dups), drawSet(rng, 128, g.NumNodes(), dups)
		for i := 0; i < 2; i++ {
			validateBoth(t, g, r, P, Q)
		}
		allocs := testing.AllocsPerRun(50, func() {
			q := Query{P: P, Q: Q, Phi: 0.5, Sets: r}
			if err := q.Validate(g); err != nil || q.PSight() != SetHit {
				t.Fatalf("err %v, sight %v", err, q.PSight())
			}
		})
		if allocs != 0 {
			t.Errorf("dups=%v: Validate on a registry hit allocates %v times", dups, allocs)
		}
	}
}

// Invalid lists fail with the registry-less text at every sight and are
// never stored; an entry validated against a larger graph is not served
// to a smaller one.
func TestSetRegistryNeverStoresInvalid(t *testing.T) {
	g := canonGraph(t)
	r := NewSetRegistry()
	bad := []graph.NodeID{5, -2, 9000}
	ok := []graph.NodeID{1, 2, 3}
	for i := 0; i < 3; i++ {
		validateBoth(t, g, r, bad, ok)
		validateBoth(t, g, r, ok, bad)
	}
	if m := r.Metrics(); m.Entries != 1 { // ok as P, from its second sight
		t.Fatalf("metrics after invalid lists: %+v", m)
	}
	small, err := graph.Generate(graph.GenConfig{Nodes: 100, Seed: 5, Name: "small"})
	if err != nil {
		t.Fatal(err)
	}
	wide := []graph.NodeID{1, 1500}
	for i := 0; i < 3; i++ {
		validateBoth(t, g, r, wide, ok)
	}
	validateBoth(t, small, r, wide, ok) // must be the range error, not a hit
}

// The registry keeps its own copy: writing to the slice a request sent
// after Validate cannot alter the stored entry.
func TestSetRegistryKeepsOwnCopy(t *testing.T) {
	g := canonGraph(t)
	rng := rand.New(rand.NewSource(23))
	r := NewSetRegistry()
	Q := drawSet(rng, 8, g.NumNodes(), false)
	for _, dups := range []bool{false, true} {
		P := drawSet(rng, 40, g.NumNodes(), dups)
		orig := slices.Clone(P)
		var filled Query
		for i := 0; i < 2; i++ {
			filled, _ = validateBoth(t, g, r, P, Q)
		}
		for i := range P {
			P[i] = 7
		}
		for i := range filled.P { // the deduplicated copy Validate handed back
			filled.P[i] = 7
		}
		hit, _ := validateBoth(t, g, r, slices.Clone(orig), Q)
		if hit.PSight() != SetHit {
			t.Fatalf("dups=%v: the original list read %v after its sender's slice was overwritten", dups, hit.PSight())
		}
		if q, _ := validateBoth(t, g, r, P, Q); q.PSight() == SetHit {
			t.Fatalf("dups=%v: the overwritten list hit the original's entry", dups)
		}
	}
}

// Entries and charged bytes stay within the constants whatever is sent,
// and a list whose own charge exceeds the byte bound is never admitted.
func TestSetRegistryBounds(t *testing.T) {
	g := canonGraph(t)
	rng := rand.New(rand.NewSource(24))
	r := NewSetRegistry()
	Q := []graph.NodeID{1, 2, 3}
	check := func() {
		t.Helper()
		if m := r.Metrics(); m.Entries > maxSetEntries || m.Bytes > maxSetBytes {
			t.Fatalf("registry over its bounds: %+v", m)
		}
	}
	twice := func(P []graph.NodeID) Query {
		var q Query
		for i := 0; i < 2; i++ {
			q = Query{P: P, Q: Q, Phi: 1, Sets: r}
			if err := q.Validate(g); err != nil {
				t.Fatal(err)
			}
			check()
		}
		return q
	}
	for i := 0; i < maxSetEntries+90; i++ {
		twice(drawSet(rng, 20, g.NumNodes(), false))
	}
	m := r.Metrics()
	if m.Entries != maxSetEntries || m.Evictions != 91 { // Q holds one entry
		t.Fatalf("after %d lists: %+v", maxSetEntries+90, m)
	}
	// 5 000-member lists are charged ≈ 400 KB each: the byte bound binds
	// long before the entry bound.
	long := func(n int) []graph.NodeID {
		out := make([]graph.NodeID, n)
		for i := range out {
			out[i] = graph.NodeID(rng.Intn(g.NumNodes()))
		}
		return out
	}
	for i := 0; i < 40; i++ {
		twice(long(5000))
	}
	if m := r.Metrics(); m.Entries >= 40 || m.Bytes < maxSetBytes/2 {
		t.Fatalf("byte bound did not bind: %+v", m)
	}
	before := r.Metrics()
	over := long(maxSetBytes/setBytesPerID + 1)
	for i := 0; i < 3; i++ {
		if q := twice(over); q.PSight() != SetFirstSight || q.pSet() != nil {
			t.Fatalf("an oversize list read %v", q.PSight())
		}
	}
	if after := r.Metrics(); after.Entries != before.Entries || after.Bytes != before.Bytes || after.Fills != before.Fills {
		t.Fatalf("an oversize list changed the registry: %+v → %+v", before, after)
	}
}

// Fresh Q sets — every hot_ier request brings one — do not push a P
// layer's first-sight mark out before its second request.
func TestSetRegistryRolesDoNotEvictEachOther(t *testing.T) {
	g := canonGraph(t)
	rng := rand.New(rand.NewSource(25))
	r := NewSetRegistry()
	P := drawSet(rng, 169, g.NumNodes(), false)
	validateBoth(t, g, r, P, drawSet(rng, 16, g.NumNodes(), false))
	for i := 0; i < 4*setSeenSlots; i++ {
		q := Query{P: []graph.NodeID{1}, Q: drawSet(rng, 16, g.NumNodes(), false), Phi: 1, Sets: r}
		if err := q.Validate(g); err != nil {
			t.Fatal(err)
		}
	}
	if q, _ := validateBoth(t, g, r, P, drawSet(rng, 16, g.NumNodes(), false)); q.PSight() != SetFill {
		t.Fatalf("P's second sight after %d fresh Q sets read %v", 4*setSeenSlots, q.PSight())
	}
}

// One request is one sight of each list, whatever the algorithm does
// inside: APX-sum's ranking scan re-validates the query with P replaced
// by its candidates, which must neither count as Q's second sight nor
// put the candidates in the registry.
func TestSetRegistryOneSightPerRequest(t *testing.T) {
	g := canonGraph(t)
	rng := rand.New(rand.NewSource(29))
	r := NewSetRegistry()
	P, Q := drawSet(rng, 60, g.NumNodes(), false), drawSet(rng, 16, g.NumNodes(), false)
	for sight, want := range []SetMetrics{
		{Skips: 2},
		{Skips: 2, Fills: 2, Entries: 2},
		{Skips: 2, Fills: 2, Hits: 2, Entries: 2},
	} {
		if _, err := Dispatch(g, "apxsum", NewINE(g), Query{P: P, Q: Q, Phi: 0.5, Agg: Sum, Sets: r}, 2); err != nil {
			t.Fatal(err)
		}
		got := r.Metrics()
		got.Bytes = 0
		if got != want {
			t.Fatalf("after apxsum request %d: %+v, want %+v", sight+1, got, want)
		}
	}
}

// swapCoords returns g with every vertex's x and y exchanged: the same
// network distances and node count, another geometry.
func swapCoords(t testing.TB, g *graph.Graph) *graph.Graph {
	t.Helper()
	n := g.NumNodes()
	b := graph.NewBuilder(n)
	b.SetName(g.Name() + "-swapped")
	x, y := make([]float64, n), make([]float64, n)
	for v := 0; v < n; v++ {
		y[v], x[v] = g.Coord(graph.NodeID(v))
	}
	if err := b.SetCoords(x, y); err != nil {
		t.Fatal(err)
	}
	for _, e := range g.Edges(nil) {
		if err := b.AddEdge(e.U, e.V, e.W); err != nil {
			t.Fatal(err)
		}
	}
	out, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func sameAnswers(a, b []Answer) bool {
	return slices.EqualFunc(a, b, func(x, y Answer) bool {
		return x.P == y.P && math.Float64bits(x.Dist) == math.Float64bits(y.Dist) && slices.Equal(x.Subset, y.Subset)
	})
}

// An "ier" Dispatch over a registered P packs its R-tree once and every
// later request searches that one; answers are the registry-less ones,
// bit for bit. The tree is stamped with its graph and the cut with its
// plan: neither is served to another.
func TestSetEntryTreeAndSplit(t *testing.T) {
	g := canonGraph(t)
	g2 := swapCoords(t, g)
	rng := rand.New(rand.NewSource(26))
	r := NewSetRegistry()
	gp, gp2 := NewINE(g), NewINE(g2)
	P := drawSet(rng, 169, g.NumNodes(), true)
	var entry *SetEntry
	for i := 0; i < 5; i++ {
		Q := drawSet(rng, 16, g.NumNodes(), false)
		for _, k := range []int{1, 4} {
			q := Query{P: P, Q: Q, Phi: 0.5, Agg: Sum, Sets: r}
			got, err := Dispatch(g, "ier", gp, q, k)
			if err != nil {
				t.Fatal(err)
			}
			want, err := Dispatch(g, "ier", gp, Query{P: P, Q: Q, Phi: 0.5, Agg: Sum}, k)
			if err != nil {
				t.Fatal(err)
			}
			if !sameAnswers(got, want) {
				t.Fatalf("request %d k=%d: %+v with a registry, %+v without", i, k, got, want)
			}
		}
		q := Query{P: P, Q: Q, Phi: 0.5, Sets: r}
		if err := q.Validate(g); err != nil {
			t.Fatal(err)
		}
		if entry == nil {
			entry = q.pSet()
		} else if q.pSet() != entry {
			t.Fatal("P's entry changed between requests")
		}
	}
	tree := entry.tree.Load()
	if tree == nil || tree.g != g || tree.t.Len() != len(dedupeNodes(P)) {
		t.Fatalf("entry's tree: %+v", tree)
	}
	if entry.pTree(g) != tree.t {
		t.Fatal("a second request packed another tree")
	}

	// Same ids, same node count, other coordinates.
	Q := drawSet(rng, 16, g.NumNodes(), false)
	got, err := Dispatch(g2, "ier", gp2, Query{P: P, Q: Q, Phi: 0.5, Agg: Max, Sets: r}, 3)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Dispatch(g2, "ier", gp2, Query{P: P, Q: Q, Phi: 0.5, Agg: Max}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !sameAnswers(got, want) {
		t.Fatalf("on the other graph: %+v with a registry, %+v without", got, want)
	}
	if t2 := entry.tree.Load(); t2.g != g2 || t2.t == tree.t {
		t.Fatal("the first graph's tree was served to the second")
	}

	// The cut: once per owner, in set order, re-cut for another owner.
	cuts := 0
	halves := func(set []graph.NodeID) [][]graph.NodeID {
		cuts++
		return [][]graph.NodeID{set[:len(set)/2], set[len(set)/2:]}
	}
	ownerA, ownerB := new(int), new(int)
	a := entry.Split(ownerA, halves)
	if !slices.Equal(slices.Concat(a...), P) {
		t.Fatal("the cut is not over the list as sent, in its order")
	}
	if again := entry.Split(ownerA, halves); cuts != 1 || &again[0][0] != &a[0][0] {
		t.Fatalf("%d cuts for one owner", cuts)
	}
	if entry.Split(ownerB, halves); cuts != 2 {
		t.Fatalf("%d cuts after a second owner asked", cuts)
	}
}

// Concurrent ier requests over a handful of layers while other lists are
// admitted and evicted around them: every answer is the registry-less
// one.
// Run under -race, it is also the check that a published entry is only
// read.
func TestSetRegistryHammer(t *testing.T) {
	// A small network: the race detector makes every INE expansion dear.
	g, err := graph.Generate(graph.GenConfig{Nodes: 400, Seed: 6, Name: "hammer"})
	if err != nil {
		t.Fatal(err)
	}
	r := NewSetRegistry()
	rng := rand.New(rand.NewSource(27))
	layers := make([][]graph.NodeID, 6)
	for i := range layers {
		layers[i] = drawSet(rng, 40+10*i, g.NumNodes(), i%2 == 1)
	}
	const rounds = 300 // every other one admits a list: more than maxSetEntries in all
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			gp := NewINE(g)
			for i := 0; i < rounds; i++ {
				P := layers[rng.Intn(len(layers))]
				Q := drawSet(rng, 8, g.NumNodes(), false)
				if i%2 == 0 { // churn: a short-lived list, sent twice so that it is admitted
					churn := drawSet(rng, 12, g.NumNodes(), false)
					for sight := 0; sight < 2; sight++ {
						q := Query{P: churn, Q: Q, Phi: 1, Sets: r}
						if err := q.Validate(g); err != nil {
							t.Error(err)
							return
						}
					}
					continue
				}
				with, bare := Query{P: P, Q: Q, Phi: 0.5, Sets: r}, Query{P: P, Q: Q, Phi: 0.5}
				got, err := Dispatch(g, "ier", gp, with, 2)
				if err != nil {
					t.Error(err)
					return
				}
				want, err := Dispatch(g, "ier", gp, bare, 2)
				if err != nil {
					t.Error(err)
					return
				}
				if !sameAnswers(got, want) {
					t.Errorf("worker %d round %d: %+v with a registry, %+v without", w, i, got, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	m := r.Metrics()
	if m.Entries > maxSetEntries || m.Bytes > maxSetBytes || m.Hits == 0 || m.Fills == 0 {
		t.Fatalf("metrics after the hammer: %+v", m)
	}
	if m.Evictions == 0 {
		t.Fatalf("the hammer evicted nothing: %+v", m)
	}
}

// FuzzSetRegistry: whatever two lists arrive — out of range, negative,
// duplicated — Validate with a warm registry returns the error text,
// sets and fingerprints of Validate without one, at every sight.
func FuzzSetRegistry(f *testing.F) {
	g := canonGraph(f)
	f.Add([]byte{1, 0, 2, 0, 3, 0}, []byte{4, 0, 5, 0})
	f.Add([]byte{1, 0, 1, 0, 9, 0}, []byte{9, 0, 9, 0})
	f.Add([]byte{0xff, 0xff, 1, 0}, []byte{2, 0})       // -1
	f.Add([]byte{1, 0}, []byte{0xd0, 0x07})             // 2000: one past the end
	f.Add([]byte{}, []byte{3, 0})                       // empty P
	f.Add([]byte{7, 0, 8, 0}, []byte{0x10, 0x27, 1, 0}) // 10000
	r := NewSetRegistry()
	ids := func(b []byte) []graph.NodeID {
		out := make([]graph.NodeID, 0, len(b)/2)
		for ; len(b) >= 2; b = b[2:] {
			out = append(out, graph.NodeID(int16(uint16(b[0])|uint16(b[1])<<8)))
		}
		return out
	}
	f.Fuzz(func(t *testing.T, p, q []byte) {
		P, Q := ids(p), ids(q)
		for sight := 0; sight < 3; sight++ {
			validateBoth(t, g, r, P, Q)
		}
	})
}

// BenchmarkValidateRegistry prices Validate over one request's P and Q
// at the three shapes bench/ sends (algo_mix's 128-id Q beside a 169-id
// layer, hot_ier's 169 + 128, shard4's 844 + 8) with no registry, at
// first sight of both lists (one hash each on top of the sort) and on a
// hit. Every iteration validates another permutation, 64 of them in
// rotation, so the sort never runs over an already sorted buffer.
func BenchmarkValidateRegistry(b *testing.B) {
	g := canonGraph(b)
	const rotation = 64
	for _, shape := range []struct{ np, nq int }{{128, 128}, {169, 128}, {844, 8}} {
		rng := rand.New(rand.NewSource(28))
		var Ps, Qs [rotation][]graph.NodeID
		for i := range Ps {
			Ps[i], Qs[i] = drawSet(rng, shape.np, g.NumNodes(), false), drawSet(rng, shape.nq, g.NumNodes(), false)
		}
		run := func(name string, r func() *SetRegistry, warm int) {
			b.Run(name, func(b *testing.B) {
				reg := r()
				for w := 0; w < warm; w++ {
					for i := range Ps {
						q := Query{P: Ps[i], Q: Qs[i], Phi: 0.5, Sets: reg}
						if err := q.Validate(g); err != nil {
							b.Fatal(err)
						}
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if warm == 0 && reg != nil && i%rotation == 0 {
						// Forget the marks: every list stays at its first sight.
						b.StopTimer()
						reg = NewSetRegistry()
						b.StartTimer()
					}
					q := Query{P: Ps[i%rotation], Q: Qs[i%rotation], Phi: 0.5, Sets: reg}
					if err := q.Validate(g); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		prefix := fmt.Sprintf("P%d+Q%d/", shape.np, shape.nq)
		run(prefix+"no-registry", func() *SetRegistry { return nil }, 0)
		run(prefix+"first-sight", NewSetRegistry, 0)
		run(prefix+"hit", NewSetRegistry, 2)
	}
}
