package gtree

import (
	"math"

	"fannr/internal/graph"
	"fannr/internal/sp"
)

// ObjectSet is the occurrence list ("Occ" in the paper's Table I) over a
// set of objects: per tree node, how many objects its subtree contains,
// and per leaf, which objects — a CSR over tree nodes, objs[start[n]:
// start[n+1]] being leaf n's objects in the order they were given. Build
// one per query object set and reuse it across many KNN calls; Reset
// rebinds it to another set without allocating.
type ObjectSet struct {
	t     *Tree
	count []int32
	start []int32
	objs  []graph.NodeID
}

// NewObjectSet indexes objs against the tree.
func (t *Tree) NewObjectSet(objs []graph.NodeID) *ObjectSet {
	os := &ObjectSet{
		t:     t,
		count: make([]int32, len(t.nodes)),
		start: make([]int32, len(t.nodes)+1),
	}
	os.Reset(objs)
	return os
}

// Reset re-indexes the set over objs, reusing its tables.
func (os *ObjectSet) Reset(objs []graph.NodeID) {
	t := os.t
	clear(os.count)
	for _, o := range objs {
		for n := t.leafOf[o]; n >= 0; n = t.nodes[n].parent {
			os.count[n]++
		}
	}
	// Counting sort by leaf, stable in the given order.
	off := int32(0)
	for i := range t.nodes {
		os.start[i] = off
		if t.nodes[i].isLeaf() {
			off += os.count[i]
		}
	}
	if cap(os.objs) < len(objs) {
		os.objs = make([]graph.NodeID, len(objs))
	}
	os.objs = os.objs[:len(objs)]
	for _, o := range objs {
		leaf := t.leafOf[o]
		os.objs[os.start[leaf]] = o
		os.start[leaf]++
	}
	// Every cursor now sits at its successor's start: shift them back.
	copy(os.start[1:], os.start)
	os.start[0] = 0
}

// leafObjects returns the objects inside leaf ni.
func (os *ObjectSet) leafObjects(ni int32) []graph.NodeID {
	return os.objs[os.start[ni]:os.start[ni+1]]
}

// Len reports the number of indexed objects.
func (os *ObjectSet) Len() int { return len(os.objs) }

// MemoryBytes estimates the occurrence-list footprint (Appendix A of the
// paper compares it against the R-tree over Q).
func (os *ObjectSet) MemoryBytes() int64 {
	return int64(len(os.count)+len(os.start)+len(os.objs)) * 4
}

// KNN returns the k nearest objects to src in ascending network-distance
// order (fewer when the reachable object set is smaller). Results are
// appended to dst. Warm Queriers allocate nothing beyond dst's growth.
func (q *Querier) KNN(src graph.NodeID, objs *ObjectSet, k int, dst []sp.Neighbor) []sp.Neighbor {
	return q.KNNBelow(src, objs, k, math.Inf(1), dst)
}

// KNNBelow is KNN for a caller that only needs neighbours nearer than
// limit: an object at or past it is never offered and a subtree whose
// border lower bound reaches it is never descended. When the k-th
// nearest object is under limit it returns KNN's neighbours (ties at one
// distance possibly in another order); otherwise it returns fewer than k.
func (q *Querier) KNNBelow(src graph.NodeID, objs *ObjectSet, k int, limit float64, dst []sp.Neighbor) []sp.Neighbor {
	if k <= 0 || objs.Len() == 0 {
		return dst
	}
	t := q.t
	q.setSource(src)
	// best keeps the k nearest objects seen; kth is its admission bar,
	// limit until k are held.
	best := q.best
	best.Reset()
	kth := limit
	offer := func(o graph.NodeID, d float64) {
		if d >= kth {
			return
		}
		if best.Len() == k {
			best.Pop()
		}
		best.Push(d, o)
		if best.Len() == k {
			kth = best.Max().Key
		}
	}

	// Best-first over tree nodes by the smallest distance to their
	// borders. Only children that contain objects get a border vector.
	srcLeaf := t.leafOf[src]
	pq := q.pq
	pq.Reset()
	if t.nodes[0].isLeaf() {
		// Degenerate single-leaf tree: the leaf subgraph is the graph.
		local := q.srcLocalDists()
		for _, o := range objs.objs {
			offer(o, local[t.posInLeaf[o]])
		}
	} else {
		pq.Push(0, 0)
	}
	for pq.Len() > 0 {
		it := pq.Pop()
		lb, ni := it.Key, it.Value
		if lb >= kth {
			break
		}
		n := &t.nodes[ni]
		if n.isLeaf() {
			v := q.borderVec(ni)
			for _, o := range objs.leafObjects(ni) {
				pos := int(t.posInLeaf[o])
				d := leafTargetDist(n, v, pos)
				if ni == srcLeaf {
					if w := q.srcLocalDists()[pos]; w < d {
						d = w
					}
				}
				offer(o, d)
			}
			continue
		}
		for _, ci := range n.children {
			if objs.count[ci] == 0 {
				continue
			}
			lbChild := 0.0
			if q.chain[n.depth+1] != ci {
				lbChild = math.Inf(1)
				for _, d := range q.borderVec(ci) {
					if d < lbChild {
						lbChild = d
					}
				}
			}
			if lbChild < kth {
				pq.Push(lbChild, ci)
			}
		}
	}

	// Drain the max-heap straight into dst (descending) and reverse the
	// appended region in place — no intermediate slice.
	base := len(dst)
	for best.Len() > 0 {
		it := best.Pop()
		dst = append(dst, sp.Neighbor{Node: it.Value, Dist: it.Key})
	}
	for i, j := base, len(dst)-1; i < j; i, j = i+1, j-1 {
		dst[i], dst[j] = dst[j], dst[i]
	}
	return dst
}
