package qcache

import (
	"sync/atomic"

	"fannr/internal/core"
	"fannr/internal/graph"
	"fannr/internal/sp"
)

// Config sizes a Cache.
type Config struct {
	// MaxEntries bounds the total entry count across both layers
	// (results and neighbor lists share the LRU). <= 0 disables the
	// cache: New returns nil, and a nil *Cache is safe everywhere.
	MaxEntries int
}

// Cache is the two-layer semantic query cache. The result layer stores
// final answers under fully specified query keys (exact hits); the list
// layer stores per-candidate sorted neighbor lists under (engine, Q, p),
// which — because every g_φ is a fold over the kNN prefix — answer any
// φ'/k' whose k' fits the cached list (subsumption hits). All methods
// are safe for concurrent use and safe on a nil receiver (disabled).
type Cache struct {
	perShard int
	shards   [numShards]shard

	// bound is the list layer's doorkeeper: digests of the (engine, Q)
	// pairs a wrapper was bound to.
	bound core.SeenTable

	hitsExact   atomic.Int64
	hitsSubsume atomic.Int64
	missesExact atomic.Int64
	missesList  atomic.Int64
	listSkips   atomic.Int64
	evictions   atomic.Int64
	entries     atomic.Int64
	bytes       atomic.Int64
}

// New builds a Cache, or returns nil when cfg disables caching.
func New(cfg Config) *Cache {
	if cfg.MaxEntries <= 0 {
		return nil
	}
	per := (cfg.MaxEntries + numShards - 1) / numShards
	if per < 1 {
		per = 1
	}
	c := &Cache{perShard: per, bound: make(core.SeenTable, boundSlots(cfg.MaxEntries))}
	for i := range c.shards {
		c.shards[i].entries = make(map[cacheKey]*entry)
	}
	return c
}

// boundSlots sizes the doorkeeper from the entry budget: one digest per
// entry the cache may hold (a Q whose lists are resident occupies at
// least one), rounded up to a power of two of whole buckets. 8 bytes a
// slot — 1/6 of the smallest list entry's accounted size.
func boundSlots(maxEntries int) int {
	n := 16 * core.SeenWays
	for n < maxEntries {
		n *= 2
	}
	return n
}

// seenBound reports whether a wrapper over engine was bound to the Q
// behind fp before (since the last Purge, and as far as the fixed table
// remembers), and records that one is now. It is the list layer's
// admission rule: a Q's neighbour lists are stored from its second
// binding on, so traffic that never repeats a Q stores, sorts and evicts
// nothing. Forgetting a Q (a full bucket, two racing writers) only
// delays its fill by one request; it never affects an answer.
func (c *Cache) seenBound(engine string, fp Fingerprint) bool {
	d := fp.Hi ^ fp.Lo*0x9E3779B97F4A7C15
	for i := 0; i < len(engine); i++ {
		d = (d ^ uint64(engine[i])) * 0x100000001B3
	}
	return c.bound.SeenBefore(d)
}

// resultVal is the stored shape of the result layer: the answers only.
// Engine name, degraded flag and latency are request properties the
// server re-derives per response, so a cached result never replays a
// stale degradation verdict.
type resultVal struct {
	answers []core.Answer
}

// listVal is the stored shape of the list layer. complete means the
// engine returned fewer neighbors than asked, i.e. the list holds every
// member of Q reachable from p — it then answers any k.
type listVal struct {
	nbrs     []sp.Neighbor
	complete bool
}

// GetResult returns the cached answers for an exactly matching query.
// The returned slice is shared — callers must treat it as read-only.
func (c *Cache) GetResult(k ResultKey) ([]core.Answer, bool) {
	if c == nil {
		return nil, false
	}
	v, ok := c.get(resultKeyOf(k))
	if !ok {
		c.missesExact.Add(1)
		return nil, false
	}
	c.hitsExact.Add(1)
	return v.(resultVal).answers, true
}

// PutResult stores answers under k. The answers are deep-copied so later
// caller mutation cannot corrupt the cache.
func (c *Cache) PutResult(k ResultKey, answers []core.Answer) {
	if c == nil {
		return
	}
	cp := make([]core.Answer, len(answers))
	size := int64(64)
	for i, a := range answers {
		cp[i] = a
		cp[i].Subset = append([]graph.NodeID(nil), a.Subset...)
		size += 32 + 8*int64(len(a.Subset))
	}
	c.put(resultKeyOf(k), resultVal{answers: cp}, size, nil)
}

// GetList returns a cached neighbor list for candidate p that can answer
// a k-prefix fold: either it holds ≥ k neighbors (the k-prefix is
// returned) or it is complete (every reachable member of Q — possibly
// fewer than k — is returned). ok=false means the cache cannot answer
// this k and the caller should compute and PutList.
func (c *Cache) GetList(engine string, q Fingerprint, p graph.NodeID, k int) ([]sp.Neighbor, bool) {
	if c == nil {
		return nil, false
	}
	v, ok := c.get(listKeyOf(engine, q, p))
	if ok {
		lv := v.(listVal)
		if len(lv.nbrs) >= k {
			c.hitsSubsume.Add(1)
			return lv.nbrs[:k], true
		}
		if lv.complete {
			c.hitsSubsume.Add(1)
			return lv.nbrs, true
		}
	}
	c.missesList.Add(1)
	return nil, false
}

// PutList stores the sorted neighbor list computed for (engine, q, p).
// complete marks lists that exhausted Q's reachable members. A resident
// list that already answers at least as much (longer, or complete) is
// kept — two racing fills can never downgrade the entry. The list is
// copied, so later caller mutation cannot corrupt the cache.
func (c *Cache) PutList(engine string, q Fingerprint, p graph.NodeID, nbrs []sp.Neighbor, complete bool) {
	if c == nil {
		return
	}
	c.putListOwned(engine, q, p, append([]sp.Neighbor(nil), nbrs...), complete)
}

// putListOwned is PutList without the copy: the cache takes nbrs over,
// and the caller may still read it but never write it again.
func (c *Cache) putListOwned(engine string, q Fingerprint, p graph.NodeID, nbrs []sp.Neighbor, complete bool) {
	size := int64(48) + 16*int64(len(nbrs))
	c.put(listKeyOf(engine, q, p), listVal{nbrs: nbrs, complete: complete}, size,
		func(old any) bool {
			ov := old.(listVal)
			if ov.complete {
				return true
			}
			return !complete && len(ov.nbrs) >= len(nbrs)
		})
}

// Metrics is an atomic snapshot of the cache counters and gauges.
type Metrics struct {
	HitsExact   int64
	HitsSubsume int64
	MissesExact int64
	MissesList  int64
	// ListSkips counts g_φ evaluations computed for a first-sight Q and
	// deliberately not stored (see seenBound).
	ListSkips int64
	Evictions int64
	Entries   int64
	Bytes     int64
}

// Metrics snapshots the counters; zero-valued on a nil cache.
func (c *Cache) Metrics() Metrics {
	if c == nil {
		return Metrics{}
	}
	return Metrics{
		HitsExact:   c.hitsExact.Load(),
		HitsSubsume: c.hitsSubsume.Load(),
		MissesExact: c.missesExact.Load(),
		MissesList:  c.missesList.Load(),
		ListSkips:   c.listSkips.Load(),
		Evictions:   c.evictions.Load(),
		Entries:     c.entries.Load(),
		Bytes:       c.bytes.Load(),
	}
}
