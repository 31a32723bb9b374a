// Package phl implements an exact 2-hop hub labeling index for
// shortest-path distance queries on road networks.
//
// The paper uses Pruned Highway Labeling (Akiba et al., ALENEX'14) as its
// fastest distance oracle. This package builds labels with the pruned
// labeling scheme by the same authors (pruned Dijkstra from every vertex,
// most important first): like PHL it is an exact 2-hop scheme whose
// queries merge two sorted label arrays in O(label size), it exploits the
// same low highway dimension of road networks, and it shares PHL's
// failure mode of exhausting memory on very large graphs — which Fig. 9
// of the paper depends on. A configurable entry budget reproduces that
// failure mode deterministically.
//
// Importance is degree, and among vertices of one degree — two thirds of
// a road network — the number of shortest paths through a vertex, sampled
// over a few shortest-path trees (order.go). Everything the index costs
// is counted in label entries: the build (each root scans the labels of
// the vertices it reaches), the file and the resident size, the bind of a
// target list (Σ_q |L(q)|) and every walk over L(p); the order is what
// sets that count, so TestLabelSizeOnRoadNetwork gates it.
package phl

import (
	"errors"
	"fmt"
	"math"
	"unsafe"

	"fannr/internal/binio"
	"fannr/internal/graph"
	"fannr/internal/pqueue"
)

// ErrBudget is returned by Build when the label size exceeds
// Options.MaxEntries, mirroring PHL running out of memory on the paper's
// CTR and USA datasets.
var ErrBudget = errors.New("phl: label entry budget exceeded")

// Options configures label construction.
type Options struct {
	// MaxEntries caps the total number of label entries across all nodes
	// (0 means unlimited). Construction fails with ErrBudget beyond it.
	MaxEntries int64
}

// Index is an immutable hub-label index. It is safe for concurrent
// readers.
//
// Labels live in two contiguous slabs addressed by an offset table: node
// v's label is hubSlab[off[v]:off[v+1]] paired element-wise with
// distSlab[off[v]:off[v+1]], sorted by hub rank. The layout is
// pointer-free past the struct header, which keeps the GC out of the
// label storage and matches the on-disk v4 sections byte for byte — the
// prerequisite for mmap-backed loading.
type Index struct {
	rank     []int32 // node -> construction rank (hub id space)
	off      []int64 // n+1 entries; label extent per node
	hubSlab  []int32
	distSlab []float64
	n        int
	// sf is non-nil for indexes opened through Load: the four arrays
	// above are then views into the section file (zero-copy into a
	// read-only mmap when sf.Mapped()). Nothing in the query path writes
	// through them — mmap'd pages are PROT_READ, so a stray write would
	// be a segfault, not corruption.
	sf *binio.SectionFile
}

// Close releases the backing file mapping for indexes opened with Load.
// The index (and every Batcher minted from it) must not be used after
// Close. Heap-built indexes return nil.
func (ix *Index) Close() error {
	if ix.sf == nil {
		return nil
	}
	sf := ix.sf
	ix.sf = nil
	ix.rank, ix.off, ix.hubSlab, ix.distSlab = nil, nil, nil, nil
	return sf.Close()
}

// Mapped reports whether the index's slabs are zero-copy views into an
// mmap'd file.
func (ix *Index) Mapped() bool { return ix.sf != nil && ix.sf.Mapped() }

// MappedBytes reports the bytes served from the file mapping (0 for
// heap-resident indexes). MemoryBytes counts only heap-resident bytes,
// so the two never double-count.
func (ix *Index) MappedBytes() int64 {
	if ix.sf == nil {
		return 0
	}
	return ix.sf.MappedBytes()
}

// MappedData returns the raw mapped byte range backing the index, or nil
// for heap-resident indexes — the range the lifecycle fault layer
// registers to attribute SIGBUS page-in faults to this index.
func (ix *Index) MappedData() []byte {
	if ix.sf == nil {
		return nil
	}
	return ix.sf.MappedData()
}

// label returns node v's parallel hub/distance arrays as views into the
// slabs.
func (ix *Index) label(v graph.NodeID) ([]int32, []float64) {
	lo, hi := ix.off[v], ix.off[v+1]
	return ix.hubSlab[lo:hi], ix.distSlab[lo:hi]
}

// Build constructs labels for g by pruned Dijkstra from every vertex in
// hubOrder: descending degree, ties by how many sampled shortest paths
// run through a vertex. The result is a function of g and opts alone.
func Build(g *graph.Graph, opts Options) (*Index, error) {
	n := g.NumNodes()
	h := pqueue.NewIndexedHeap(n)
	order := hubOrder(g, h)
	rank := make([]int32, n)
	for r, v := range order {
		rank[v] = int32(r)
	}
	// Construction appends to labels interleaved across nodes, so it works
	// on per-node slices and flattens into the slab layout at the end.
	hubs := make([][]int32, n)
	dists := make([][]float64, n)

	dist := make([]float64, n)
	stamp := make([]uint32, n)
	var epoch uint32
	// tmp[r] holds the root's label keyed by hub rank during one pruned
	// Dijkstra, enabling O(label) prune checks, and +Inf everywhere else:
	// a hub the root's label lacks then fails the check on its own, with
	// one random load per entry scanned.
	tmp := make([]float64, n)
	for i := range tmp {
		tmp[i] = math.Inf(1)
	}
	var entries int64

	for r := 0; r < n; r++ {
		root := order[r]
		epoch++
		// The search appends (r, 0) to the root's own label; the entries
		// before it are the ones to scatter, and to take back afterwards.
		rootHubs, rootDists := hubs[root], dists[root]
		for i, hub := range rootHubs {
			tmp[hub] = rootDists[i]
		}
		h.Reset()
		stamp[root] = epoch
		dist[root] = 0
		h.Update(root, 0)
		for h.Len() > 0 {
			v, dv := h.Pop()
			// Prune check: if existing labels already certify a distance
			// ≤ dv between root and v, the search need not go through v.
			pruned := false
			hv := hubs[v]
			dvs := dists[v]
			for i, hub := range hv {
				if tmp[hub]+dvs[i] <= dv {
					pruned = true
					break
				}
			}
			if pruned {
				continue
			}
			hubs[v] = append(hubs[v], int32(r))
			dists[v] = append(dists[v], dv)
			entries++
			if opts.MaxEntries > 0 && entries > opts.MaxEntries {
				return nil, fmt.Errorf("%w (limit %d)", ErrBudget, opts.MaxEntries)
			}
			nbrs, ws := g.Neighbors(v)
			for i, u := range nbrs {
				du := dv + ws[i]
				if stamp[u] != epoch || du < dist[u] {
					stamp[u] = epoch
					dist[u] = du
					h.Update(u, du)
				}
			}
		}
		for _, hub := range rootHubs {
			tmp[hub] = math.Inf(1)
		}
	}

	ix := &Index{rank: rank, n: n, off: make([]int64, n+1)}
	for v := 0; v < n; v++ {
		ix.off[v+1] = ix.off[v] + int64(len(hubs[v]))
	}
	ix.hubSlab = make([]int32, ix.off[n])
	ix.distSlab = make([]float64, ix.off[n])
	for v := 0; v < n; v++ {
		copy(ix.hubSlab[ix.off[v]:], hubs[v])
		copy(ix.distSlab[ix.off[v]:], dists[v])
	}
	return ix, nil
}

// Dist returns the exact shortest-path distance between u and v, or +Inf
// if they are disconnected.
func (ix *Index) Dist(u, v graph.NodeID) float64 {
	if u == v {
		return 0
	}
	hu, du := ix.label(u)
	hv, dv := ix.label(v)
	best := math.Inf(1)
	i, j := 0, 0
	for i < len(hu) && j < len(hv) {
		switch {
		case hu[i] == hv[j]:
			if d := du[i] + dv[j]; d < best {
				best = d
			}
			i++
			j++
		case hu[i] < hv[j]:
			i++
		default:
			j++
		}
	}
	return best
}

// Entries returns the total number of label entries.
func (ix *Index) Entries() int64 {
	if len(ix.off) == 0 {
		return 0
	}
	return ix.off[ix.n]
}

// MemoryBytes reports the heap-resident footprint of the index: the rank
// and offset tables, both label slabs, and the struct header itself. For
// an mmap-loaded index the arrays live in the page cache, not the heap,
// and are reported by MappedBytes instead.
func (ix *Index) MemoryBytes() int64 {
	if ix.Mapped() {
		return int64(unsafe.Sizeof(*ix))
	}
	return int64(unsafe.Sizeof(*ix)) +
		int64(len(ix.rank))*4 +
		int64(len(ix.off))*8 +
		int64(len(ix.hubSlab))*4 +
		int64(len(ix.distSlab))*8
}

// AvgLabelSize returns the mean number of entries per node.
func (ix *Index) AvgLabelSize() float64 {
	if ix.n == 0 {
		return 0
	}
	return float64(ix.Entries()) / float64(ix.n)
}

// Batcher is a per-goroutine batching front-end over a shared Index: it
// owns the rank-indexed scatter table that one-to-many queries need, so
// the Index itself stays safe for concurrent readers. Mint one per engine
// with NewBatcher; a Batcher must not be used from multiple goroutines.
type Batcher struct {
	ix    *Index
	tab   []float64 // hub rank -> distance from the scattered source label
	stamp []uint32
	epoch uint32
	// u/uvalid memoize the scattered source: consecutive same-source
	// batches (IER's chunked candidate scan) skip the re-scatter and go
	// straight to the per-target probes. Nothing else writes tab/stamp,
	// so the memo only expires when the source changes.
	u      graph.NodeID
	uvalid bool
	// Target-bound mode (BindTargets, then DistBound — or the same walk in
	// two steps, DistBoundPrefix and DistBoundResume, for a caller that
	// may not need it finished): the labels of a fixed target list
	// inverted into one bucket per hub. Hub h's bucket is
	// bqi/bd[bend[h]-bcnt[h] : bend[h]] — the index into the bound list
	// of every target whose label holds h, paired with its distance to h
	// — and is live while bstamp[h] == bepoch. The tables are allocated
	// on the first bind and the slabs only grow, so a Batcher that never
	// binds (one wrapped by a caller that hides BindTargets) pays nothing
	// and a warm one allocates nothing.
	bstamp []uint32
	bcnt   []int32
	bend   []int32
	bepoch uint32
	bqi    []int32
	bd     []float64
	nq     int
}

// NewBatcher returns a batching front-end bound to ix.
func (ix *Index) NewBatcher() *Batcher {
	return &Batcher{ix: ix, tab: make([]float64, ix.n), stamp: make([]uint32, ix.n)}
}

// NewBatchOracle lets engine constructors that only see an opaque distance
// oracle mint a per-engine batching front-end without importing this
// package. The result implements both Dist and DistBatch.
func (ix *Index) NewBatchOracle() any { return ix.NewBatcher() }

// Dist delegates to the shared index's label merge.
func (b *Batcher) Dist(u, v graph.NodeID) float64 { return b.ix.Dist(u, v) }

// Entries reports the underlying index's label count (forwarded so a
// Batcher can stand in for the Index wherever size is probed).
func (b *Batcher) Entries() int64 { return b.ix.Entries() }

// MemoryBytes reports the underlying index footprint plus the scatter
// table and, once a target list has been bound, the bucket tables and
// slabs.
func (b *Batcher) MemoryBytes() int64 {
	return b.ix.MemoryBytes() + int64(len(b.tab))*8 + int64(len(b.stamp))*4 +
		int64(len(b.bstamp)+len(b.bcnt)+len(b.bend))*4 +
		int64(cap(b.bqi))*4 + int64(cap(b.bd))*8
}

// DistBatch computes distances from u to every target in one pass over
// u's hub label: the label is scattered into the rank-indexed table once
// (O(|L(u)|)), after which each target costs a single scan of its own
// label instead of a full merge. Results are bit-identical to Dist —
// the same hub sums are minimized in the same order — with +Inf for
// unreachable targets. len(out) must be at least len(targets); warm
// Batchers allocate nothing.
func (b *Batcher) DistBatch(u graph.NodeID, targets []graph.NodeID, out []float64) {
	if len(targets) == 0 {
		return
	}
	_ = out[len(targets)-1]
	if !b.uvalid || b.u != u {
		b.epoch++
		if b.epoch == 0 {
			for i := range b.stamp {
				b.stamp[i] = 0
			}
			b.epoch = 1
		}
		hu, du := b.ix.label(u)
		for i, h := range hu {
			b.tab[h] = du[i]
			b.stamp[h] = b.epoch
		}
		b.u = u
		b.uvalid = true
	}
	for i, v := range targets {
		if v == u {
			out[i] = 0
			continue
		}
		hv, dv := b.ix.label(v)
		best := math.Inf(1)
		for j, h := range hv {
			if b.stamp[h] == b.epoch {
				if d := b.tab[h] + dv[j]; d < best {
					best = d
				}
			}
		}
		out[i] = best
	}
}

// BindTargets binds the Batcher to a fixed target list for DistBound: the
// many-sources-to-one-target-set shape of g_φ, where DistBatch would walk
// every entry of every target's label again for each source. The labels
// of targets are inverted into per-hub buckets with a two-pass counting
// sort — count per hub, then place in target order, a bucket's extent
// being claimed the first time the second pass meets its hub — over
// epoch-stamped tables, so a bind costs O(Σ_t |L(t)|) whatever the graph
// size. targets may repeat a node and may be empty; the binding holds
// until the next BindTargets and is independent of DistBatch's memo.
// Bucket offsets are int32: the labels of one target list must hold
// fewer than 2³¹ entries (a 24 GiB slab).
func (b *Batcher) BindTargets(targets []graph.NodeID) {
	if b.bstamp == nil {
		n := b.ix.n
		b.bstamp, b.bcnt, b.bend = make([]uint32, n), make([]int32, n), make([]int32, n)
	}
	if b.bepoch >= math.MaxUint32-1 {
		for i := range b.bstamp {
			b.bstamp[i] = 0
		}
		b.bepoch = 0
	}
	counted, placed := b.bepoch+1, b.bepoch+2
	b.bepoch = placed
	b.nq = len(targets)
	total := 0
	for _, t := range targets {
		ht, _ := b.ix.label(t)
		for _, h := range ht {
			if b.bstamp[h] != counted {
				b.bstamp[h] = counted
				b.bcnt[h] = 0
			}
			b.bcnt[h]++
		}
		total += len(ht)
	}
	if cap(b.bqi) < total {
		b.bqi, b.bd = make([]int32, total), make([]float64, total)
	}
	next := int32(0)
	for qi, t := range targets {
		ht, dt := b.ix.label(t)
		for j, h := range ht {
			if b.bstamp[h] == counted {
				b.bstamp[h] = placed
				b.bend[h] = next
				next += b.bcnt[h]
			}
			at := b.bend[h]
			b.bqi[at], b.bd[at] = int32(qi), dt[j]
			b.bend[h] = at + 1
		}
	}
}

// DistBound writes the distance from u to the i-th bound target into
// out[i], for every target of the last BindTargets: one walk over u's
// label, relaxing out over the bucket of each hub that has one. It forms
// exactly the sums DistBatch forms — d(u,h) + d(t,h) for every hub h the
// two labels share, same operand order — and takes their minimum, which
// does not depend on the order they arrive in, so the results are
// bit-identical to DistBatch and Dist: +Inf for an unreachable target,
// and 0 for u itself, because u's label carries a zero-distance hub (u,
// or a hub at distance 0 that pruned it) and no sum is negative. len(out)
// must be at least the number of bound targets; warm Batchers allocate
// nothing.
func (b *Batcher) DistBound(u graph.NodeID, out []float64) {
	out = out[:b.nq]
	for i := range out {
		out[i] = math.Inf(1)
	}
	b.DistBoundResume(u, 0, out)
}

// boundSlack is ε in the lower bound DistBoundPrefix keeps. For a hub h
// in both L(u) and L(t) the triangle inequality gives
// |d(u,h) − d(t,h)| ≤ d(u,t) over exact distances, but a label entry is a
// left-to-right sum of up to n edge weights and carries a relative error
// of up to n·2⁻⁵³, so the computed difference can overshoot by that share
// of the *operands* — a relative slack on the difference itself would
// not survive cancellation, the two entries can agree to the last few
// bits — and the computed distance it is compared with, the minimum of
// such sums, can undershoot by as much again. 2n·2⁻⁵³ is 8.9e-10 at n =
// 4 million edges on one shortest path (the USA road network has 58
// million in all); the 1.1e-10 left over covers adding up to a million
// bounds in a different order than the distances they are held against.
const boundSlack = 1e-9

// DistBoundPrefix starts a DistBound that a caller may abandon: it
// walks u's label only until hubs of its entries have met a bucket and
// returns the label position it stopped at. out[i] then holds the
// minimum over those hubs (+Inf if none reached target i) and lb[i] a
// lower bound on the value DistBound would leave there: the largest
// |d(u,h) − d(tᵢ,h)| − ε·(d(u,h) + d(tᵢ,h)) met so far, 0 if none (see
// boundSlack). A label's first entries are its highest-ranked hubs, the
// ones most of the graph shares, so a few of them bound nearly every
// target. DistBoundResume continues from the returned position. out and
// lb must each hold at least the number of bound targets.
func (b *Batcher) DistBoundPrefix(u graph.NodeID, hubs int, out, lb []float64) int {
	out, lb = out[:b.nq], lb[:b.nq]
	if len(out) == 0 {
		return 0
	}
	for i := range out {
		out[i], lb[i] = math.Inf(1), 0
	}
	hu, du := b.ix.label(u)
	pos := 0
	for ; pos < len(hu) && hubs > 0; pos++ {
		h := hu[pos]
		if b.bstamp[h] != b.bepoch {
			continue
		}
		hubs--
		end := b.bend[h]
		start := end - b.bcnt[h]
		d := du[pos]
		qi, dq := b.bqi[start:end], b.bd[start:end]
		for j, t := range qi {
			s := d + dq[j]
			if s < out[t] {
				out[t] = s
			}
			if l := math.Abs(d-dq[j]) - boundSlack*s; l > lb[t] {
				lb[t] = l
			}
		}
	}
	return pos
}

// DistBoundResume is the relax loop of the bound path: it walks u's
// label from position pos on, lowering out over the bucket of each hub
// that has one. From 0 over an out of +Inf it is DistBound; from the
// position DistBoundPrefix returned, over the out it left, it finishes
// that walk — the same sums reach the same minimum, so the result is
// bit-identical to DistBound's.
func (b *Batcher) DistBoundResume(u graph.NodeID, pos int, out []float64) {
	out = out[:b.nq]
	if len(out) == 0 {
		return // nothing bound (or an empty list): no tables to consult
	}
	hu, du := b.ix.label(u)
	hu, du = hu[pos:], du[pos:]
	for i, h := range hu {
		if b.bstamp[h] != b.bepoch {
			continue
		}
		end := b.bend[h]
		start := end - b.bcnt[h]
		d := du[i]
		qi, dq := b.bqi[start:end], b.bd[start:end]
		for j, t := range qi {
			if s := d + dq[j]; s < out[t] {
				out[t] = s
			}
		}
	}
}
