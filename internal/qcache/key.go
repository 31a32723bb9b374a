// Package qcache is the query-acceleration subsystem: a semantic result
// cache over FANN answers, a per-candidate neighbor-list cache that
// exploits the paper's "Revisitation of g_φ" (every flexible aggregate
// is a fold over the k nearest members of Q, so one cached sorted list
// answers every φ' ≤ φ), and in-flight coalescing of identical
// concurrent queries. Stdlib only.
package qcache

import (
	"encoding/binary"
	"hash/maphash"
	"sort"

	"fannr/internal/core"
	"fannr/internal/graph"
)

// Fingerprint is a 128-bit order- and duplicate-insensitive digest of a
// node set, built from two independently seeded maphash sums. Keys store
// fingerprints instead of the sets themselves, so collision resistance
// matters: 64 bits would give a birthday bound within reach of a busy
// cache's lifetime, 128 bits does not. The seeds are process-local,
// which is exactly the scope of the cache.
type Fingerprint struct {
	Hi, Lo uint64
}

var (
	seedHi = maphash.MakeSeed()
	seedLo = maphash.MakeSeed()
)

// FingerprintNodes digests ids as a set: a scratch copy is sorted and
// deduplicated, then length-prefixed and hashed. Query.Validate already
// canonicalizes P and Q by first-occurrence dedup, so permuted-but-equal
// inputs reach the cache as permutations of one set and hash identically
// here.
func FingerprintNodes(ids []graph.NodeID) Fingerprint {
	scratch := make([]graph.NodeID, len(ids))
	copy(scratch, ids)
	sort.Slice(scratch, func(i, j int) bool { return scratch[i] < scratch[j] })
	n := 0
	for i, id := range scratch {
		if i == 0 || id != scratch[n-1] {
			scratch[n] = id
			n++
		}
	}
	scratch = scratch[:n]

	var hi, lo maphash.Hash
	hi.SetSeed(seedHi)
	lo.SetSeed(seedLo)
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(n))
	hi.Write(b[:])
	lo.Write(b[:])
	for _, id := range scratch {
		binary.LittleEndian.PutUint64(b[:], uint64(id))
		hi.Write(b[:])
		lo.Write(b[:])
	}
	return Fingerprint{Hi: hi.Sum64(), Lo: lo.Sum64()}
}

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
