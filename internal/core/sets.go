package core

import (
	"hash/maphash"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"fannr/internal/graph"
	"fannr/internal/obs"
	"fannr/internal/rtree"
)

// This file is the set registry: what Validate and the tiers above it
// remember about an id list they have seen before. The paper's P is a
// layer — one object set queried many times — and everything Validate
// derives from a set (is every id inside the graph, which entries
// repeat, what is the order-insensitive digest) depends on the set
// alone, as do the R-tree IER-kNN searches over P and the per-shard cut
// the coordinator ships. A registry keeps those per set, keyed by the id
// list as it was sent, so a request that repeats a layer pays one hash
// and one comparison for it instead of a sort.
//
// The key is the list, not the set: a permuted re-send is another key
// and costs what an unknown list costs. That is what lets a hit skip the
// sort (a key derived from the sorted ids could not), and it keeps P in
// the order the caller wrote, so ties break as they do without a
// registry.

const (
	// maxSetEntries bounds how many lists a registry holds. The largest
	// rotation of layers bench/ drives is algo_mix's 128 P sets (64 at
	// each of two densities); four times that leaves room for the Q sets
	// that repeat beside them (cache_zipf's 40) without a layer in
	// rotation ever being the least recently used.
	maxSetEntries = 512
	// maxSetBytes bounds what the entries are charged. A list is charged
	// setBytesPerID a member when it is admitted, which covers all that
	// may come to hang off it, so the bound holds however the entry is
	// used later. 8 MiB is every one of maxSetEntries entries at 200
	// members — past hot_ier's 169-id layers — or a dozen layers of
	// shard4's 844; a list whose own charge exceeds it (≈ 100 k ids) is
	// never admitted.
	maxSetBytes = 8 << 20
	// setBytesPerID is the charge per member: the list (4 B), its
	// duplicate-free copy when it has one (≤ 4), the per-shard cut (4),
	// and a packed R-tree at fan-out 4 — a 24 B point, a quarter of an
	// 88 B leaf, a twelfth of a 120 B inner node with its child
	// pointers, allocator rounding — ≈ 64 B.
	setBytesPerID    = 80
	setEntryOverhead = 256
	// setSeenSlots sizes each role's table of first sights (8 B a slot):
	// twice maxSetEntries, so a layer is still remembered when it comes
	// round again in any rotation the entry bound can hold.
	setSeenSlots = 1024
)

// SetSight says what the registry did with a set Validate canonicalised.
type SetSight uint8

const (
	// SetUntracked: no registry was consulted (Query.Sets is nil, or the
	// set was validated before it was attached).
	SetUntracked SetSight = iota
	// SetFirstSight: an unknown list; it went through the sort and
	// nothing was stored. An oversize list reads this every time.
	SetFirstSight
	// SetFill: a list seen once before; it went through the sort and its
	// entry was stored.
	SetFill
	// SetHit: a stored list; nothing was sorted.
	SetHit
)

func (s SetSight) String() string {
	switch s {
	case SetFirstSight:
		return "first-sight"
	case SetFill:
		return "fill"
	case SetHit:
		return "hit"
	}
	return ""
}

// setRole separates the two first-sight tables: a stream of fresh Q sets
// must not push a layer's one mark out before its second request comes.
type setRole uint8

const (
	roleP setRole = iota
	roleQ
)

// SetRegistry is a bounded store of validated id lists, safe for
// concurrent use. The zero value is not usable; a nil *SetRegistry is
// (as "no registry").
type SetRegistry struct {
	mu     sync.Mutex
	byHash map[uint64]*SetEntry
	lru    SetEntry // ring sentinel: lru.next is the most recently used
	bytes  int64

	seen [2]SeenTable

	hits, fills, skips, evictions atomic.Int64
}

// NewSetRegistry returns an empty registry.
func NewSetRegistry() *SetRegistry {
	r := &SetRegistry{
		byHash: make(map[uint64]*SetEntry),
		seen:   [2]SeenTable{make(SeenTable, setSeenSlots), make(SeenTable, setSeenSlots)},
	}
	r.lru.next, r.lru.prev = &r.lru, &r.lru
	return r
}

// SetEntry is one stored list. What Validate computed is fixed before
// the entry is published and never written again; the tree and the cut
// are built on first use, under build, and only ever replaced whole.
type SetEntry struct {
	hash  uint64
	ids   []graph.NodeID // the list as sent: the registry's own copy
	dedup []graph.NodeID // first occurrences in list order; nil when ids has no duplicate
	fp    Fingerprint
	nodes int // node count the ids were range-checked against
	cost  int64

	prev, next *SetEntry // LRU ring, guarded by SetRegistry.mu

	build sync.Mutex
	tree  atomic.Pointer[setTree]
	split atomic.Pointer[setSplit]
}

type setTree struct {
	g *graph.Graph
	t *rtree.Tree
}

type setSplit struct {
	by    any
	parts [][]graph.NodeID
}

// set returns the entry's duplicate-free members in list order.
func (e *SetEntry) set() []graph.NodeID {
	if e.dedup != nil {
		return e.dedup
	}
	return e.ids
}

// pTree returns the packed R-tree over the set on g's coordinates, built
// by the first caller and shared read-only afterwards. It is stamped
// with the graph: the same ids on another graph get a tree of their own.
func (e *SetEntry) pTree(g *graph.Graph) *rtree.Tree {
	if t := e.tree.Load(); t != nil && t.g == g {
		return t.t
	}
	e.build.Lock()
	defer e.build.Unlock()
	if t := e.tree.Load(); t != nil && t.g == g {
		return t.t
	}
	t := &setTree{g: g, t: buildPTree(g, e.set())}
	e.tree.Store(t)
	return t.t
}

// Split returns cut(list) — the list as sent divided into parts, each in
// list order — computed by the first caller for the partition by and
// shared read-only afterwards: a memo of cut, keyed like the entry. by
// identifies what cut cuts along (a *shard.Plan): asked with another,
// the parts are cut again.
func (e *SetEntry) Split(by any, cut func([]graph.NodeID) [][]graph.NodeID) [][]graph.NodeID {
	if s := e.split.Load(); s != nil && s.by == by {
		return s.parts
	}
	e.build.Lock()
	defer e.build.Unlock()
	if s := e.split.Load(); s != nil && s.by == by {
		return s.parts
	}
	s := &setSplit{by: by, parts: cut(e.ids)}
	e.split.Store(s)
	return s.parts
}

var seedList = maphash.MakeSeed()

// hashList digests ids as written: order and multiplicity count.
func hashList(ids []graph.NodeID) uint64 {
	return maphash.Bytes(seedList, unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(ids))), len(ids)*int(unsafe.Sizeof(ids[0]))))
}

// Find returns the entry stored for exactly this list, validated
// against a graph of nodes nodes, or nil. It admits nothing: a list
// becomes an entry only through Validate.
func (r *SetRegistry) Find(ids []graph.NodeID, nodes int) *SetEntry {
	if r == nil {
		return nil
	}
	return r.lookup(hashList(ids), ids, nodes)
}

func (r *SetRegistry) lookup(h uint64, ids []graph.NodeID, nodes int) *SetEntry {
	r.mu.Lock()
	e := r.byHash[h]
	if e != nil && e != r.lru.next {
		e.unlink()
		e.linkAfter(&r.lru)
	}
	r.mu.Unlock()
	if e == nil || e.nodes != nodes || !slices.Equal(e.ids, ids) {
		return nil
	}
	return e
}

// admit is called with a list that missed and passed validation: out is
// its duplicate-free form and fp its digest. A list the role's table has
// seen before is stored and its entry returned; any other is marked as
// seen and nil returned.
func (r *SetRegistry) admit(role setRole, h uint64, ids, out []graph.NodeID, fp Fingerprint, nodes int) *SetEntry {
	cost := setEntryOverhead + int64(len(ids))*setBytesPerID
	if cost > maxSetBytes || !r.seen[role].SeenBefore(h) {
		r.skips.Add(1)
		return nil
	}
	e := &SetEntry{hash: h, ids: slices.Clone(ids), fp: fp, nodes: nodes, cost: cost}
	if len(out) != len(ids) {
		e.dedup = slices.Clone(out)
	}
	r.mu.Lock()
	if old := r.byHash[h]; old != nil {
		// A racing fill of the same list, the list under another node
		// count, or a hash collision: the newcomer replaces it.
		r.remove(old)
	}
	r.byHash[h] = e
	e.linkAfter(&r.lru)
	r.bytes += cost
	for len(r.byHash) > maxSetEntries || r.bytes > maxSetBytes {
		r.remove(r.lru.prev)
		r.evictions.Add(1)
	}
	r.mu.Unlock()
	r.fills.Add(1)
	return e
}

// SeenWays is a SeenTable's bucket width.
const SeenWays = 4

// SeenTable is a doorkeeper: a fixed table of 64-bit digests in buckets
// of SeenWays slots, most recent first, that says whether a digest has
// been shown to it before. The set registry admits an entry on its
// second sight through one. Forgetting a
// digest (a full bucket, two racing writers) delays an admission by one
// sight; it never affects an answer. Its length is a power of two no
// smaller than SeenWays; the zero digest is stored as 1.
type SeenTable []atomic.Uint64

// SeenBefore reports whether d is in the table, and puts it at the head
// of its bucket.
func (t SeenTable) SeenBefore(d uint64) bool {
	d |= 1 // 0 is an empty slot
	bucket := int(d>>8) & (len(t)/SeenWays - 1)
	b := t[bucket*SeenWays:][:SeenWays]
	prev := d
	for i := range b {
		prev = b[i].Swap(prev) // shift the bucket down behind d
		if prev == d {
			return true
		}
	}
	return false
}

func (e *SetEntry) unlink() {
	e.prev.next, e.next.prev = e.next, e.prev
}

func (e *SetEntry) linkAfter(at *SetEntry) {
	e.prev, e.next = at, at.next
	at.next.prev, at.next = e, e
}

// remove drops a resident entry; requests that hold it keep using it.
func (r *SetRegistry) remove(e *SetEntry) {
	e.unlink()
	delete(r.byHash, e.hash)
	r.bytes -= e.cost
}

// SetMetrics is a snapshot of a registry's counters. Hits, Fills and
// Skips count sets (a request validates two): served from an entry,
// stored at their second sight, canonicalised and not stored.
type SetMetrics struct {
	Hits, Fills, Skips, Evictions int64
	Entries                       int
	Bytes                         int64
}

// Metrics returns the current counters; zero for a nil registry.
func (r *SetRegistry) Metrics() SetMetrics {
	if r == nil {
		return SetMetrics{}
	}
	r.mu.Lock()
	entries, bytes := len(r.byHash), r.bytes
	r.mu.Unlock()
	return SetMetrics{
		Hits: r.hits.Load(), Fills: r.fills.Load(), Skips: r.skips.Load(), Evictions: r.evictions.Load(),
		Entries: entries, Bytes: bytes,
	}
}

// RegisterMetrics exposes the counters on reg as
// <prefix>_{hits,fills,skips,evictions}_total — "fannr_sets" on the
// single-process server, "fannr_shard_sets" on a coordinator — read from
// the registry at scrape time.
func (r *SetRegistry) RegisterMetrics(reg *obs.Registry, prefix string) {
	for _, c := range []struct {
		name, help string
		v          *atomic.Int64
	}{
		{"hits", "Id lists (a request carries two) served from a set-registry entry: nothing sorted.", &r.hits},
		{"fills", "Id lists stored in the set registry, at their second sight.", &r.fills},
		{"skips", "Id lists canonicalised and not stored: a first sight, or a list over the byte bound.", &r.skips},
		{"evictions", "Set-registry entries dropped by its entry or byte bound.", &r.evictions},
	} {
		v := c.v
		reg.CounterFunc(prefix+"_"+c.name+"_total", c.help, func() float64 { return float64(v.Load()) })
	}
}

// canonicalizeIn is canonicalize through the query's registry: a stored
// list takes its answers from the entry, any other runs the sort and is
// offered to the registry afterwards. Without a registry it is
// canonicalize.
func (q *Query) canonicalizeIn(role setRole, ids []graph.NodeID, nodes int, buf *[]graph.NodeID) (out []graph.NodeID, c canonSet, bad int) {
	r := q.Sets
	if r == nil {
		return canonicalize(ids, nodes, buf)
	}
	h := hashList(ids)
	if e := r.lookup(h, ids, nodes); e != nil {
		r.hits.Add(1)
		out = ids
		if e.dedup != nil {
			out = e.dedup
		}
		return out, canonSet{first: &out[0], n: len(out), fp: e.fp, entry: e, sight: SetHit}, -1
	}
	if out, c, bad = canonicalize(ids, nodes, buf); bad >= 0 {
		return nil, canonSet{}, bad
	}
	c.sight = SetFirstSight
	if c.entry = r.admit(role, h, ids, out, c.fp, nodes); c.entry != nil {
		c.sight = SetFill
	}
	return out, c, -1
}

// pSet returns the registry entry behind q.P: non-nil once Validate has
// found or stored one, for as long as q.P is the slice it validated.
func (q *Query) pSet() *SetEntry {
	if q.canonP.covers(q.P) {
		return q.canonP.entry
	}
	return nil
}

// PSight reports what the registry did with P at the last Validate.
func (q *Query) PSight() SetSight { return q.canonP.sight }

// pTree returns the R-tree IER-kNN searches over the validated q.P: the
// registry entry's when P has one, else built for this request.
func (q *Query) pTree(g *graph.Graph) *rtree.Tree {
	if e := q.pSet(); e != nil {
		return e.pTree(g)
	}
	return buildPTree(g, q.P)
}
