package qcache

import (
	"testing"

	"fannr/internal/core"
	"fannr/internal/graph"
	"fannr/internal/sp"
)

func rkey(engine string, phi float64, k int, p, q Fingerprint) ResultKey {
	return ResultKey{Engine: engine, Algo: "gd", Agg: core.Max, Phi: phi, K: k, P: p, Q: q}
}

func TestNilCacheIsSafe(t *testing.T) {
	var c *Cache
	if c != New(Config{MaxEntries: 0}) {
		t.Fatalf("New with MaxEntries 0 should be nil")
	}
	if _, ok := c.GetResult(rkey("e", 0.5, 1, Fingerprint{}, Fingerprint{})); ok {
		t.Fatalf("nil cache hit")
	}
	c.PutResult(rkey("e", 0.5, 1, Fingerprint{}, Fingerprint{}), nil)
	if _, ok := c.GetList("e", Fingerprint{}, 0, 1); ok {
		t.Fatalf("nil cache list hit")
	}
	c.PutList("e", Fingerprint{}, 0, nil, false)
	c.Purge()
	if m := c.Metrics(); m != (Metrics{}) {
		t.Fatalf("nil cache metrics %+v", m)
	}
}

func TestResultRoundTripAndIsolation(t *testing.T) {
	c := New(Config{MaxEntries: 64})
	p := FingerprintNodes([]graph.NodeID{1, 2, 3})
	q := FingerprintNodes([]graph.NodeID{4, 5})
	key := rkey("PHL", 0.5, 1, p, q)

	if _, ok := c.GetResult(key); ok {
		t.Fatalf("hit on empty cache")
	}
	ans := []core.Answer{{P: 7, Dist: 1.5, Subset: []graph.NodeID{4}}}
	c.PutResult(key, ans)
	ans[0].Subset[0] = 99 // caller mutation must not reach the cache
	got, ok := c.GetResult(key)
	if !ok || len(got) != 1 || got[0].P != 7 || got[0].Subset[0] != 4 {
		t.Fatalf("round trip got %+v ok=%v", got, ok)
	}

	// Every parameter participates in the key.
	for _, other := range []ResultKey{
		rkey("INE", 0.5, 1, p, q),
		rkey("PHL", 0.75, 1, p, q),
		rkey("PHL", 0.5, 2, p, q),
		rkey("PHL", 0.5, 1, q, p),
		{Engine: "PHL", Algo: "rlist", Agg: core.Max, Phi: 0.5, K: 1, P: p, Q: q},
		{Engine: "PHL", Algo: "gd", Agg: core.Sum, Phi: 0.5, K: 1, P: p, Q: q},
	} {
		if _, ok := c.GetResult(other); ok {
			t.Fatalf("key %+v unexpectedly hit", other)
		}
	}

	m := c.Metrics()
	if m.HitsExact != 1 || m.MissesExact != 7 || m.Entries != 1 || m.Bytes <= 0 {
		t.Fatalf("metrics %+v", m)
	}
}

// TestPutListCopiesOwnedPutDoesNot pins the two list puts: the exported
// one copies, so its caller may reuse the slice; the owning one stores
// the very slice it was handed.
func TestPutListCopiesOwnedPutDoesNot(t *testing.T) {
	c := New(Config{MaxEntries: 64})
	q := FingerprintNodes([]graph.NodeID{1, 2})
	nbrs := []sp.Neighbor{{Node: 1, Dist: 1}, {Node: 2, Dist: 2}}
	c.PutList("E", q, 10, nbrs, true)
	nbrs[0].Dist = 99 // caller mutation must not reach the cache
	if got, ok := c.GetList("E", q, 10, 2); !ok || got[0].Dist != 1 {
		t.Fatalf("PutList did not copy: got %v ok=%v", got, ok)
	}
	own := []sp.Neighbor{{Node: 1, Dist: 1}, {Node: 2, Dist: 2}}
	c.putListOwned("E", q, 11, own, true)
	if got, ok := c.GetList("E", q, 11, 2); !ok || &got[0] != &own[0] {
		t.Fatalf("putListOwned copied the list it was given (ok=%v)", ok)
	}
}

func TestListSubsumptionAndCompleteness(t *testing.T) {
	c := New(Config{MaxEntries: 64})
	q := FingerprintNodes([]graph.NodeID{1, 2, 3, 4})
	nbrs := []sp.Neighbor{{Node: 1, Dist: 1}, {Node: 2, Dist: 2}, {Node: 3, Dist: 3}}

	c.PutList("INE", q, 10, nbrs, false)
	for k := 1; k <= 3; k++ {
		got, ok := c.GetList("INE", q, 10, k)
		if !ok || len(got) != k || got[k-1].Node != graph.NodeID(k) {
			t.Fatalf("k=%d got %v ok=%v", k, got, ok)
		}
	}
	if _, ok := c.GetList("INE", q, 10, 4); ok {
		t.Fatalf("k=4 should miss an incomplete 3-list")
	}
	if _, ok := c.GetList("PHL", q, 10, 1); ok {
		t.Fatalf("list leaked across engines")
	}
	if _, ok := c.GetList("INE", q, 11, 1); ok {
		t.Fatalf("list leaked across candidates")
	}

	// A complete list answers any k with what is reachable.
	c.PutList("INE", q, 10, nbrs, true)
	got, ok := c.GetList("INE", q, 10, 9)
	if !ok || len(got) != 3 {
		t.Fatalf("complete list: got %v ok=%v", got, ok)
	}

	// A shorter racing fill must not downgrade the resident list.
	c.PutList("INE", q, 10, nbrs[:1], false)
	if got, ok := c.GetList("INE", q, 10, 3); !ok || len(got) != 3 {
		t.Fatalf("shorter fill downgraded the entry: %v ok=%v", got, ok)
	}
}

func TestLRUEvictionAndGauges(t *testing.T) {
	c := New(Config{MaxEntries: numShards}) // one entry per shard
	q := FingerprintNodes([]graph.NodeID{1})
	// Two list entries that land in the same shard: same q, candidate ids
	// differing only above the shard mask spacing. Find two colliding ids.
	var a, b graph.NodeID
	found := false
	for i := 1; i < 1000 && !found; i++ {
		for j := i + 1; j < 1000; j++ {
			if shardOf(listKeyOf("E", q, graph.NodeID(i))) == shardOf(listKeyOf("E", q, graph.NodeID(j))) {
				a, b, found = graph.NodeID(i), graph.NodeID(j), true
				break
			}
		}
	}
	if !found {
		t.Fatalf("no shard collision found")
	}
	one := []sp.Neighbor{{Node: 1, Dist: 1}}
	c.PutList("E", q, a, one, true)
	c.PutList("E", q, b, one, true) // evicts a (LRU, per-shard cap 1)
	if _, ok := c.GetList("E", q, a, 1); ok {
		t.Fatalf("evicted entry still present")
	}
	if _, ok := c.GetList("E", q, b, 1); !ok {
		t.Fatalf("newest entry evicted")
	}
	m := c.Metrics()
	if m.Evictions != 1 || m.Entries != 1 {
		t.Fatalf("metrics %+v", m)
	}
	c.Purge()
	m = c.Metrics()
	if m.Entries != 0 || m.Bytes != 0 {
		t.Fatalf("purge left %+v", m)
	}
}
