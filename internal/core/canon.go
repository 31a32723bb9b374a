package core

import (
	"encoding/binary"
	"hash/maphash"
	"slices"
	"sync"

	"fannr/internal/graph"
)

// This file is the one canonicalisation pass a query's sets go through.
// Sorting a copy of a set answers three questions at once: whether any
// id lies outside the graph (the ends of the sorted copy), whether any id
// repeats (adjacent equals), and what the set's order- and duplicate-
// insensitive digest is (a hash of the sorted, compacted copy). Validate
// asks all three, the query cache keys on the third, and nobody sorts
// the same set twice for one request.

// Fingerprint is a 128-bit order- and duplicate-insensitive digest of a
// node set, built from two independently seeded maphash sums. Cache keys
// store fingerprints instead of the sets themselves, so collision
// resistance matters: 64 bits would give a birthday bound within reach
// of a busy cache's lifetime, 128 bits does not. The seeds are
// process-local, which is exactly the scope of the caches.
type Fingerprint struct {
	Hi, Lo uint64
}

var (
	seedHi = maphash.MakeSeed()
	seedLo = maphash.MakeSeed()
)

// fingerprintSorted digests a sorted, duplicate-free id list: its length,
// then the ids, fixed-width.
func fingerprintSorted(ids []graph.NodeID) Fingerprint {
	var hi, lo maphash.Hash
	hi.SetSeed(seedHi)
	lo.SetSeed(seedLo)
	var b [512]byte
	binary.LittleEndian.PutUint64(b[:], uint64(len(ids)))
	n := 8
	for _, id := range ids {
		if n == len(b) {
			hi.Write(b[:])
			lo.Write(b[:])
			n = 0
		}
		binary.LittleEndian.PutUint32(b[n:], uint32(id))
		n += 4
	}
	hi.Write(b[:n])
	lo.Write(b[:n])
	return Fingerprint{Hi: hi.Sum64(), Lo: lo.Sum64()}
}

// sortBufs lends the sort buffer to queries that carry no Scratch (the
// serving tiers validate before an engine, and with it a Scratch, is
// checked out).
var sortBufs = sync.Pool{New: func() any { return new([]graph.NodeID) }}

// sortBuf returns the buffer canonicalize sorts in: the Scratch's when
// the query has one, a pooled one otherwise. Pair with releaseSortBuf.
func (q *Query) sortBuf() *[]graph.NodeID {
	if q.Scratch != nil {
		return &q.Scratch.ids
	}
	return sortBufs.Get().(*[]graph.NodeID)
}

func (q *Query) releaseSortBuf(buf *[]graph.NodeID) {
	if q.Scratch == nil {
		sortBufs.Put(buf)
	}
}

// sortedSet fills *buf with the distinct ids in ascending order and
// reports whether ids held a duplicate.
func sortedSet(ids []graph.NodeID, buf *[]graph.NodeID) (set []graph.NodeID, dup bool) {
	s := append((*buf)[:0], ids...)
	slices.Sort(s)
	set = slices.Compact(s)
	*buf = s
	return set, len(set) != len(s)
}

// FingerprintNodes digests ids as a set. Query.Fingerprints is the same
// digest for free once a query is validated.
func FingerprintNodes(ids []graph.NodeID) Fingerprint {
	buf := sortBufs.Get().(*[]graph.NodeID)
	set, _ := sortedSet(ids, buf)
	fp := fingerprintSorted(set)
	sortBufs.Put(buf)
	return fp
}

// canonSet is what Validate remembers of a set it canonicalized: which
// slice it was (first element and length — a set replaced afterwards,
// as APX-sum replaces P by its candidates, no longer matches), its
// fingerprint, and what the query's registry made of it (sets.go).
// Overwriting elements in place behind Validate's back is the one thing
// this cannot see.
type canonSet struct {
	first *graph.NodeID
	n     int
	fp    Fingerprint
	entry *SetEntry
	sight SetSight
}

func (c *canonSet) covers(ids []graph.NodeID) bool {
	return c.n > 0 && c.n == len(ids) && c.first == &ids[0]
}

// canonicalize is Validate's pass over one non-empty set against a graph
// of nodes nodes. bad is the position in ids of the first id outside the
// graph, -1 when there is none; out is ids itself when it holds no
// duplicate, else a fresh first-occurrence-order copy without them.
func canonicalize(ids []graph.NodeID, nodes int, buf *[]graph.NodeID) (out []graph.NodeID, c canonSet, bad int) {
	set, dup := sortedSet(ids, buf)
	if set[0] < 0 || int(set[len(set)-1]) >= nodes {
		return nil, canonSet{}, slices.IndexFunc(ids, func(v graph.NodeID) bool { return v < 0 || int(v) >= nodes })
	}
	out = ids
	if dup {
		out = dedupeNodes(ids)
	}
	return out, canonSet{first: &out[0], n: len(out), fp: fingerprintSorted(set)}, -1
}

// fingerprintOf returns ids' digest: the remembered one when ids is the
// slice c covers, else a fresh sort's.
func (c *canonSet) fingerprintOf(ids []graph.NodeID) Fingerprint {
	if c.covers(ids) {
		return c.fp
	}
	return FingerprintNodes(ids)
}

// Fingerprints returns the digests of P and Q. On a validated query they
// are the ones Validate's sort produced; otherwise they are computed
// here, so the answer is right either way.
func (q *Query) Fingerprints() (p, qq Fingerprint) {
	return q.canonP.fingerprintOf(q.P), q.canonQ.fingerprintOf(q.Q)
}

// dedupeNodes returns ids with duplicates removed, keeping the first
// occurrence of each id in order. The input is returned as-is when it is
// already duplicate-free.
func dedupeNodes(ids []graph.NodeID) []graph.NodeID {
	seen := make(map[graph.NodeID]struct{}, len(ids))
	for i, v := range ids {
		if _, dup := seen[v]; dup {
			out := make([]graph.NodeID, i, len(ids))
			copy(out, ids[:i])
			for _, w := range ids[i:] {
				if _, dup := seen[w]; !dup {
					seen[w] = struct{}{}
					out = append(out, w)
				}
			}
			return out
		}
		seen[v] = struct{}{}
	}
	return ids
}
