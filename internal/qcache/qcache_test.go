package qcache

import (
	"math/rand"
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

// TestPutListCopies: PutList stores a copy, so its caller may reuse the
// slice.
func TestPutListCopies(t *testing.T) {
	c := New(Config{MaxEntries: 64})
	q := FingerprintNodes([]graph.NodeID{1, 2})
	nbrs := []sp.Neighbor{{Node: 1, Dist: 1}, {Node: 2, Dist: 2}}
	c.PutList("E", q, 10, nbrs, true)
	nbrs[0].Dist = 99 // caller mutation must not reach the cache
	if got, ok := c.get(listKeyOf("E", q, 10)); !ok || got.([]sp.Neighbor)[0].Dist != 1 {
		t.Fatalf("PutList did not copy: got %v ok=%v", got, ok)
	}
	if m := c.Metrics(); m.Entries != 1 || m.Bytes != 48+2*16 {
		t.Fatalf("one list of two: %+v", m)
	}
}

// TestResultsOfOnePairSpreadOverShards: the 20 φ/agg/k queries a Zipf
// workload asks over one (P, Q) pair do not share one shard's budget.
func TestResultsOfOnePairSpreadOverShards(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for pair := 0; pair < 50; pair++ {
		p := Fingerprint{Hi: rng.Uint64(), Lo: rng.Uint64()}
		q := Fingerprint{Hi: rng.Uint64(), Lo: rng.Uint64()}
		used := map[int]int{}
		for _, phi := range []float64{0.1, 0.3, 0.5, 0.7, 1} {
			for _, agg := range []core.Aggregate{core.Max, core.Sum} {
				for _, k := range []int{1, 5} {
					used[shardOf(resultKeyOf(ResultKey{Engine: "IER-PHL@1", Algo: "ier", Agg: agg, Phi: phi, K: k, P: p, Q: q}))]++
				}
			}
		}
		most := 0
		for _, n := range used {
			most = max(most, n)
		}
		if len(used) < numShards/2 || most > 5 {
			t.Fatalf("pair %d: 20 queries in %d shards, %d in the fullest: %v", pair, len(used), most, used)
		}
	}
}

func TestLRUEvictionAndGauges(t *testing.T) {
	c := New(Config{MaxEntries: numShards}) // one entry per shard
	q := FingerprintNodes([]graph.NodeID{1})
	// Two result keys that land in the same shard: same P and Q, k
	// differing. Find two colliding ks.
	key := func(k int) ResultKey { return rkey("E", 0.5, k, q, q) }
	var a, b int
	found := false
	for i := 1; i < 1000 && !found; i++ {
		for j := i + 1; j < 1000; j++ {
			if shardOf(resultKeyOf(key(i))) == shardOf(resultKeyOf(key(j))) {
				a, b, found = i, j, true
				break
			}
		}
	}
	if !found {
		t.Fatalf("no shard collision found")
	}
	one := []core.Answer{{P: 1, Dist: 1}}
	c.PutResult(key(a), one)
	c.PutResult(key(b), one) // evicts a (LRU, per-shard cap 1)
	if _, ok := c.GetResult(key(a)); ok {
		t.Fatalf("evicted entry still present")
	}
	if _, ok := c.GetResult(key(b)); !ok {
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
