package qcache

import (
	"math"

	"fannr/internal/core"
	"fannr/internal/graph"
	"fannr/internal/sp"
)

// Wrap returns a GPhi that serves Dist/Subset from the cache's
// neighbor-list layer. What a miss does depends on whether the cache has
// seen the bound Q before (Cache.seenBound, asked at Reset): for a Q
// bound at least once already, the miss falls through to inner's
// KNearest and fills the cache for the next query; for a Q at first
// sight it is evaluated by inner directly and nothing is stored. The
// wrapper is cheap, carries per-request state (the bound Q's fingerprint
// and admission verdict, the bound Stats) and must not be shared across
// goroutines — create one per request around a pooled engine. When the
// cache is nil or inner cannot enumerate neighbors, inner is returned
// unchanged.
func (c *Cache) Wrap(inner core.GPhi) core.GPhi {
	if c == nil {
		return inner
	}
	ns, ok := inner.(core.NeighborSearcher)
	if !ok {
		return inner
	}
	below, _ := inner.(core.DistBelower)
	return &cachedEngine{inner: inner, ns: ns, below: below, c: c, name: inner.Name()}
}

type cachedEngine struct {
	inner core.GPhi
	ns    core.NeighborSearcher
	below core.DistBelower // inner's, when it can end an evaluation early
	c     *Cache
	name  string
	qfp   Fingerprint
	fill  bool // the cache has seen this Q before: misses store their list
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
	e.fill = e.c.seenBound(e.name, fp)
	e.inner.Reset(Q)
}

// ListMode names what gp does with a neighbour list the cache lacks:
// "fill" (compute and store it), "first-sight" (evaluate through the
// engine and store nothing — the cache had not seen the bound Q before)
// or "" when gp is not a Wrap result. It reads the last Reset's verdict.
func ListMode(gp core.GPhi) string {
	e, ok := gp.(*cachedEngine)
	switch {
	case !ok:
		return ""
	case e.fill:
		return "fill"
	}
	return "first-sight"
}

// lookup serves the k-nearest list for p: from the cache, or — for a Q
// the cache has seen before — computed and stored. The list is sorted
// ascending and holds min(k, reachable) neighbors. ok is false for a
// miss at first sight of Q: the caller evaluates through inner, which
// for an oracle engine's Dist means no list is built or sorted at all.
func (e *cachedEngine) lookup(p graph.NodeID, k int) (nbrs []sp.Neighbor, ok bool) {
	if nbrs, ok := e.c.GetList(e.name, e.qfp, p, k); ok {
		e.stats.CountCacheHit()
		return nbrs, true
	}
	e.stats.CountCacheMiss()
	if !e.fill {
		e.c.listSkips.Add(1)
		return nil, false
	}
	nbrs = e.ns.KNearest(p, k, nil) // fresh, and only read from here on
	e.c.putListOwned(e.name, e.qfp, p, nbrs, len(nbrs) < k)
	return nbrs, true
}

// Dist, Subset and KNearest go through core's one fold and one
// projection, so a cached list answers bit-identically to the live
// engine it came from, and the live engine at first sight answers
// bit-identically to the list a later request stores (both are the
// NeighborSearcher contract). KNearest also makes wrapped engines
// themselves wrappable.

func (e *cachedEngine) Dist(p graph.NodeID, k int, agg core.Aggregate) (float64, bool) {
	return e.DistBelow(p, k, agg, math.Inf(1))
}

// DistBelow hands the caller's threshold to inner only on the path that
// stores nothing: a resident list answers in full (the fold over it is
// cheaper than any bound), and a list being filled must be whole, so the
// fill path asks KNearest as before.
func (e *cachedEngine) DistBelow(p graph.NodeID, k int, agg core.Aggregate, tau float64) (float64, bool) {
	if nbrs, ok := e.lookup(p, k); ok {
		return core.AggSorted(nbrs, k, agg)
	}
	if e.below != nil {
		return e.below.DistBelow(p, k, agg, tau)
	}
	return e.inner.Dist(p, k, agg)
}

func (e *cachedEngine) Subset(p graph.NodeID, k int, dst []graph.NodeID) []graph.NodeID {
	if nbrs, ok := e.lookup(p, k); ok {
		return core.SubsetSorted(nbrs, k, dst)
	}
	return e.inner.Subset(p, k, dst)
}

func (e *cachedEngine) KNearest(p graph.NodeID, k int, dst []sp.Neighbor) []sp.Neighbor {
	if nbrs, ok := e.lookup(p, k); ok {
		return append(dst, nbrs[:min(k, len(nbrs))]...)
	}
	return e.ns.KNearest(p, k, dst)
}
