package qcache

import (
	"sync/atomic"

	"fannr/internal/core"
	"fannr/internal/graph"
	"fannr/internal/sp"
)

// Config sizes a Cache.
type Config struct {
	// MaxEntries bounds the cache's entry count. <= 0 disables the cache:
	// New returns nil, and a nil *Cache is safe everywhere.
	MaxEntries int
}

// Cache is the result cache: final answers stored under fully specified
// query keys and served on an exact match. All methods are safe for
// concurrent use and safe on a nil receiver (disabled).
type Cache struct {
	perShard int
	shards   [numShards]shard

	hitsExact   atomic.Int64
	missesExact atomic.Int64
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
	c := &Cache{perShard: per}
	for i := range c.shards {
		c.shards[i].entries = make(map[cacheKey]*entry)
	}
	return c
}

// GetResult returns the cached answers for an exactly matching query.
// The returned slice is shared — callers must treat it as read-only.
// Engine name, degraded flag and latency are request properties the
// server re-derives per response, so a cached result never replays a
// stale degradation verdict.
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
	return v.([]core.Answer), true
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
	c.put(resultKeyOf(k), cp, size)
}

// PutList stores a copy of a sorted neighbour list under (engine, q, p):
// one store into the LRU, which nothing reads back; complete is ignored.
// Its last caller is the benchmark's qcache.put_list_ns rung, and it
// goes when that rung does.
func (c *Cache) PutList(engine string, q Fingerprint, p graph.NodeID, nbrs []sp.Neighbor, complete bool) {
	if c == nil {
		return
	}
	c.put(listKeyOf(engine, q, p), append([]sp.Neighbor(nil), nbrs...), 48+16*int64(len(nbrs)))
}

// Metrics is an atomic snapshot of the cache counters and gauges.
type Metrics struct {
	HitsExact   int64
	MissesExact int64
	Evictions   int64
	Entries     int64
	Bytes       int64
}

// Metrics snapshots the counters; zero-valued on a nil cache.
func (c *Cache) Metrics() Metrics {
	if c == nil {
		return Metrics{}
	}
	return Metrics{
		HitsExact:   c.hitsExact.Load(),
		MissesExact: c.missesExact.Load(),
		Evictions:   c.evictions.Load(),
		Entries:     c.entries.Load(),
		Bytes:       c.bytes.Load(),
	}
}
