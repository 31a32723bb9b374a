package qcache

import (
	"encoding/json"
	"math/rand"
	"testing"

	"fannr/internal/core"
	"fannr/internal/graph"
	"fannr/internal/wire"
)

func TestFingerprintSetSemantics(t *testing.T) {
	base := []graph.NodeID{9, 3, 17, 4, 256}
	want := FingerprintNodes(base)

	perm := []graph.NodeID{256, 4, 3, 17, 9}
	if got := FingerprintNodes(perm); got != want {
		t.Fatalf("permutation changed fingerprint: %v vs %v", got, want)
	}
	dup := []graph.NodeID{9, 3, 3, 17, 4, 256, 9, 9}
	if got := FingerprintNodes(dup); got != want {
		t.Fatalf("duplicates changed fingerprint: %v vs %v", got, want)
	}
	if got := FingerprintNodes([]graph.NodeID{9, 3, 17, 4}); got == want {
		t.Fatalf("dropping an element kept the fingerprint")
	}
	if got := FingerprintNodes([]graph.NodeID{9, 3, 17, 4, 255}); got == want {
		t.Fatalf("swapping an element kept the fingerprint")
	}
}

func TestFingerprintNoAccidentalCollisions(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	seen := map[Fingerprint][]graph.NodeID{}
	for i := 0; i < 5000; i++ {
		n := 1 + rng.Intn(12)
		ids := make([]graph.NodeID, n)
		for j := range ids {
			ids[j] = graph.NodeID(rng.Intn(4096))
		}
		fp := FingerprintNodes(ids)
		if prev, ok := seen[fp]; ok && !sameSet(prev, ids) {
			t.Fatalf("collision: %v and %v -> %v", prev, ids, fp)
		}
		seen[fp] = append([]graph.NodeID(nil), ids...)
	}
}

func sameSet(a, b []graph.NodeID) bool {
	m := map[graph.NodeID]bool{}
	for _, v := range a {
		m[v] = true
	}
	n := map[graph.NodeID]bool{}
	for _, v := range b {
		if !m[v] {
			return false
		}
		n[v] = true
	}
	return len(m) == len(n)
}

func TestShardOfInRange(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 1000; i++ {
		fp := Fingerprint{Hi: rng.Uint64(), Lo: rng.Uint64()}
		k := resultKeyOf(ResultKey{Engine: "INE", Agg: core.Aggregate(rng.Intn(2)), Phi: rng.Float64(), K: 1 + rng.Intn(20), P: fp, Q: fp})
		if s := shardOf(k); s < 0 || s >= numShards {
			t.Fatalf("shard %d out of range", s)
		}
	}
}

// The digests a validated query carries are FingerprintNodes of the raw
// ids, so a result key built from Query.Fingerprints equals one built
// the long way — the property that keeps cache behaviour (hits,
// evictions) what it was.
func TestFingerprintsOfValidatedQueryMatch(t *testing.T) {
	g, err := graph.Generate(graph.GenConfig{Nodes: 600, Seed: 3, Name: "fp"})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	draw := func(n int) []graph.NodeID {
		out := make([]graph.NodeID, n)
		for i := range out {
			out[i] = graph.NodeID(rng.Intn(g.NumNodes())) // collisions on purpose
		}
		return out
	}
	for trial := 0; trial < 40; trial++ {
		rawP, rawQ := draw(1+rng.Intn(150)), draw(1+rng.Intn(100))
		q := core.Query{P: rawP, Q: rawQ, Phi: 0.5}
		if err := q.Validate(g); err != nil {
			t.Fatal(err)
		}
		var key ResultKey
		key.P, key.Q = q.Fingerprints()
		if key.P != FingerprintNodes(rawP) || key.Q != FingerprintNodes(rawQ) {
			t.Fatalf("trial %d: Validate's digests differ from FingerprintNodes of the raw ids", trial)
		}
		if key.P != FingerprintNodes(q.P) || key.Q != FingerprintNodes(q.Q) {
			t.Fatalf("trial %d: digests differ from FingerprintNodes of the deduplicated ids", trial)
		}
	}
}

// The request-side stage of a hot_ier-shaped request — decode the body,
// validate, build the result key — allocates the two id slices and
// nothing else once the pooled buffers are warm: no map, no sort
// scratch, no strings for well-known names.
func TestRequestStageAllocs(t *testing.T) {
	g, err := graph.Generate(graph.GenConfig{Nodes: 2000, Seed: 4, Name: "stage"})
	if err != nil {
		t.Fatal(err)
	}
	perm := rand.New(rand.NewSource(6)).Perm(g.NumNodes())
	ids := func(perm []int) []graph.NodeID {
		out := make([]graph.NodeID, len(perm))
		for i, v := range perm {
			out[i] = graph.NodeID(v)
		}
		return out
	}
	body, err := json.Marshal(&wire.FANNRequest{P: ids(perm[:169]), Q: ids(perm[169 : 169+128]), Phi: 0.5, Agg: "max", Algo: "ier", Engine: "IER-PHL", K: 1})
	if err != nil {
		t.Fatal(err)
	}
	var key ResultKey
	var req wire.FANNRequest // a handler's lives as long as its request; the decoder overwrites it whole
	allocs := testing.AllocsPerRun(100, func() {
		if err := wire.DecodeBody(body, &req); err != nil {
			t.Fatal(err)
		}
		q := core.Query{P: req.P, Q: req.Q, Phi: req.Phi}
		if err := q.Validate(g); err != nil {
			t.Fatal(err)
		}
		key = ResultKey{Engine: req.Engine, Algo: req.Algo, Agg: q.Agg, Phi: q.Phi, K: req.K}
		key.P, key.Q = q.Fingerprints()
	})
	if allocs > 2 {
		t.Fatalf("decode + Validate + result key allocates %v times, want <= 2 (P and Q)", allocs)
	}
	if key.P == key.Q {
		t.Fatal("P and Q digests collide")
	}
}
