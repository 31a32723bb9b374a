package qcache

import (
	"fannr/internal/core"
	"fannr/internal/graph"
	"fannr/internal/sp"
)

// Wrap returns a GPhi that serves Dist/Subset from the cache's
// neighbor-list layer, falling through to inner's KNearest on misses and
// filling the cache for the next query. The wrapper is cheap, carries
// per-request state (the bound Q's fingerprint, the bound Stats) and
// must not be shared across goroutines — create one per request around a
// pooled engine. When the cache is nil or inner cannot enumerate
// neighbors, inner is returned unchanged.
func (c *Cache) Wrap(inner core.GPhi) core.GPhi {
	if c == nil {
		return inner
	}
	ns, ok := inner.(core.NeighborSearcher)
	if !ok {
		return inner
	}
	return &cachedEngine{inner: inner, ns: ns, c: c, name: inner.Name()}
}

type cachedEngine struct {
	inner core.GPhi
	ns    core.NeighborSearcher
	c     *Cache
	name  string
	qfp   Fingerprint
	stats *core.Stats
}

func (e *cachedEngine) Name() string { return e.inner.Name() }

// BindStats keeps a handle for hit/miss attribution and forwards the
// binding so inner's settles land on the same Stats on misses.
func (e *cachedEngine) BindStats(s *core.Stats) {
	e.stats = s
	core.BindStats(e.inner, s)
}

// BindCancel forwards the request's cancellation channel so blocking
// wrappers beneath the cache (chaos latency) still wake on cancel.
func (e *cachedEngine) BindCancel(done <-chan struct{}) {
	core.BindCancel(e.inner, done)
}

func (e *cachedEngine) Reset(Q []graph.NodeID) {
	e.ResetFingerprinted(Q, FingerprintNodes(Q))
}

// ResetFingerprinted is Reset for a caller that already holds Q's
// fingerprint: core's solve passes the one Query.Validate computed.
func (e *cachedEngine) ResetFingerprinted(Q []graph.NodeID, fp Fingerprint) {
	e.qfp = fp
	e.inner.Reset(Q)
}

// lookup serves the k-nearest list for p from cache or computes and
// fills it. The result is sorted ascending and holds min(k, reachable)
// neighbors.
func (e *cachedEngine) lookup(p graph.NodeID, k int) []sp.Neighbor {
	if nbrs, ok := e.c.GetList(e.name, e.qfp, p, k); ok {
		e.stats.CountCacheHit()
		return nbrs
	}
	e.stats.CountCacheMiss()
	nbrs := e.ns.KNearest(p, k, nil) // fresh, and only read from here on
	e.c.putListOwned(e.name, e.qfp, p, nbrs, len(nbrs) < k)
	return nbrs
}

// Dist, Subset and KNearest go through core's one fold and one
// projection, so a cached list answers bit-identically to the live
// engine it came from (the NeighborSearcher contract). KNearest also
// makes wrapped engines themselves wrappable.

func (e *cachedEngine) Dist(p graph.NodeID, k int, agg core.Aggregate) (float64, bool) {
	return core.AggSorted(e.lookup(p, k), k, agg)
}

func (e *cachedEngine) Subset(p graph.NodeID, k int, dst []graph.NodeID) []graph.NodeID {
	return core.SubsetSorted(e.lookup(p, k), k, dst)
}

func (e *cachedEngine) KNearest(p graph.NodeID, k int, dst []sp.Neighbor) []sp.Neighbor {
	nbrs := e.lookup(p, k)
	return append(dst, nbrs[:min(k, len(nbrs))]...)
}
