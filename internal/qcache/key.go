// Package qcache is the query-acceleration subsystem: a semantic result
// cache over FANN answers, a per-candidate neighbor-list cache that
// exploits the paper's "Revisitation of g_φ" (every flexible aggregate
// is a fold over the k nearest members of Q, so one cached sorted list
// answers every φ' ≤ φ), and in-flight coalescing of identical
// concurrent queries. Stdlib only.
package qcache

import (
	"fannr/internal/core"
	"fannr/internal/graph"
)

// Fingerprint is the 128-bit order- and duplicate-insensitive digest of
// a node set that keys both cache layers. It is core's: Query.Validate
// takes it from the sort that canonicalizes the set, so a validated
// query's Fingerprints cost nothing more.
type Fingerprint = core.Fingerprint

// FingerprintNodes digests ids as a set — permuted or duplicated inputs
// hash identically. It sorts a copy; for a query that went through
// Validate, read Query.Fingerprints instead.
func FingerprintNodes(ids []graph.NodeID) Fingerprint { return core.FingerprintNodes(ids) }

// ResultKey identifies one fully specified FANN query for the result
// layer and the coalescing group: the engine that will serve it, the
// algorithm, every query parameter, and the canonical fingerprints of P
// and Q. Two requests with permuted-but-equal P/Q build equal ResultKeys.
type ResultKey struct {
	Engine string
	Algo   string
	Agg    core.Aggregate
	Phi    float64
	K      int
	P, Q   Fingerprint
}

// NewResultKey is the result key of a validated query run as algo for k
// answers on engine. The engine member is the caller's to stamp with
// whatever makes a cached answer stale on its tier: engine@generation on
// the server, engine@shards:<epoch>:<mask> on the coordinator.
func NewResultKey(engine, algo string, q *core.Query, k int) ResultKey {
	p, qq := q.Fingerprints()
	return ResultKey{Engine: engine, Algo: algo, Agg: q.Agg, Phi: q.Phi, K: k, P: p, Q: qq}
}

// entryKind discriminates the two value shapes sharing the LRU.
type entryKind uint8

const (
	kindResult entryKind = 1 + iota
	kindList
)

// cacheKey is the internal comparable key covering both layers. For
// results, p/q are the P/Q fingerprints and the query parameters are
// set; for neighbor lists, p carries the candidate node id and the
// parameter fields are zero (the list is independent of g, φ and k — it
// is the kNN list the paper's g_φ revisitation reduces every aggregate
// to).
type cacheKey struct {
	kind   entryKind
	engine string
	algo   string
	agg    core.Aggregate
	k      int
	phi    float64
	p, q   Fingerprint
}

func resultKeyOf(k ResultKey) cacheKey {
	return cacheKey{
		kind:   kindResult,
		engine: k.Engine,
		algo:   k.Algo,
		agg:    k.Agg,
		k:      k.K,
		phi:    k.Phi,
		p:      k.P,
		q:      k.Q,
	}
}

func listKeyOf(engine string, q Fingerprint, p graph.NodeID) cacheKey {
	return cacheKey{
		kind:   kindList,
		engine: engine,
		p:      Fingerprint{Lo: uint64(p)},
		q:      q,
	}
}

// shardOf folds the fingerprints into a shard index. List keys for one Q
// spread by candidate id; result keys spread by the P fingerprint.
func shardOf(k cacheKey) int {
	h := k.p.Hi ^ k.p.Lo ^ k.q.Hi ^ k.q.Lo
	h ^= h >> 32
	h ^= h >> 16
	return int(h & (numShards - 1))
}
