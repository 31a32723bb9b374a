package gtree

import (
	"math"

	"fannr/internal/graph"
)

// ObjectSet is the occurrence list ("Occ" in the paper's Table I) over a
// set of objects: per tree node, how many objects its subtree contains,
// and per leaf, which objects — a CSR over tree nodes, objs[start[n]:
// start[n+1]] being leaf n's objects in the order they were given. Build
// one per query object set and reuse it across many searches; Reset
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

// Start begins an incremental nearest-object search from src over objs;
// Next then yields the reachable objects in nondecreasing network
// distance. The search is best-first over one min-heap that holds tree
// nodes keyed by the smallest distance to their borders and objects keyed
// by their exact distance. Only nodes that contain objects enter it, and
// a node's border vector is built when its parent is opened.
func (q *Querier) Start(src graph.NodeID, objs *ObjectSet) {
	t := q.t
	q.setSource(src)
	q.objs = objs
	q.pq.Reset()
	q.due = -1
	switch {
	case objs.Len() == 0:
	case t.nodes[0].isLeaf():
		// Degenerate single-leaf tree: the leaf subgraph is the graph.
		local := q.srcLocalDists()
		for _, o := range objs.objs {
			q.push(local[t.posInLeaf[o]], -1-o)
		}
	default:
		q.pq.Push(0, 0)
	}
}

// Next takes one step of the search and returns its floor: no object
// not yet yielded is nearer than floor. A step either yields object o,
// at distance floor, or takes the nearest tree node off the heap and
// yields none (o = -1); that node is opened when the next step is asked
// for, so a caller that stops on the floor never pays for it. The floor
// is formed from the same sums as the distances it bounds, so it is
// exact. ok is false once every reachable object has been yielded.
func (q *Querier) Next() (o graph.NodeID, floor float64, ok bool) {
	if q.due >= 0 {
		q.open(q.due)
		q.due = -1
	}
	if q.pq.Len() == 0 {
		return -1, math.Inf(1), false
	}
	it := q.pq.Pop()
	if it.Value < 0 {
		return -1 - it.Value, it.Key, true
	}
	q.due = it.Value
	return -1, it.Key, true
}

// open pushes the objects of leaf ni at their distances, or the children
// of inner node ni that hold objects at their border lower bounds.
func (q *Querier) open(ni int32) {
	t := q.t
	n := &t.nodes[ni]
	if n.isLeaf() {
		v := q.borderVec(ni)
		for _, o := range q.objs.leafObjects(ni) {
			pos := int(t.posInLeaf[o])
			d := leafTargetDist(n, v, pos)
			if ni == t.leafOf[q.bu] {
				d = min(d, q.srcLocalDists()[pos])
			}
			q.push(d, -1-o)
		}
		return
	}
	for _, ci := range n.children {
		if q.objs.count[ci] == 0 {
			continue
		}
		lb := 0.0
		if q.chain[n.depth+1] != ci {
			lb = math.Inf(1)
			for _, d := range q.borderVec(ci) {
				lb = min(lb, d)
			}
		}
		q.push(lb, ci)
	}
}

// push queues a tree node (v >= 0) or an object o (v = -1-o) at key d
// unless d says it cannot be reached.
func (q *Querier) push(d float64, v int32) {
	if !math.IsInf(d, 1) {
		q.pq.Push(d, v)
	}
}
