package sp

import (
	"math/bits"

	"fannr/internal/graph"
	"fannr/internal/pqueue"
)

// Expander is one lane of the paper's "switchable" multi-source Dijkstra
// (§IV-A implementation details): Dijkstra's Start and Step, over
// sparse labels (one open-addressed labelTable) instead of graph-sized
// arrays. R-List and Exact-max keep |Q| lanes live at once and switch
// between them, so the total footprint is the visited region, not
// O(|Q||V|). A lane is bound to its graph by Reset and re-armed by
// Start, so a caller that pools its lanes allocates none in steady
// state.
type Expander struct {
	g       *graph.Graph
	h       *pqueue.Heap[graph.NodeID] // lazy-deletion frontier
	labels  labelTable
	scanned int64
}

// Reset binds the lane to g; Start then searches it.
func (e *Expander) Reset(g *graph.Graph) { e.g = g }

// NodesScanned returns the number of nodes settled since Start.
func (e *Expander) NodesScanned() int64 { return e.scanned }

// Start begins a search from src, discarding any search in progress and
// reusing its label table and frontier. A lane whose last search
// outgrew maxRetainedSlots hands that memory back here and starts small
// again, so what a pooled lane keeps between queries is bounded by a
// constant.
func (e *Expander) Start(src graph.NodeID) {
	if e.h == nil || len(e.labels.slots) > maxRetainedSlots {
		e.h = pqueue.NewHeap[graph.NodeID](16)
		e.labels = labelTable{}
	}
	e.scanned = 0
	e.h.Reset()
	e.labels.reset()
	l, _ := e.labels.slot(src)
	l.dist = 0
	e.h.Push(0, src)
}

// Step settles the nearest node not yet settled, relaxes its edges and
// returns it with its distance, as Dijkstra.Step does. ok is false once
// every node reachable from the source has settled.
func (e *Expander) Step() (v graph.NodeID, dist float64, ok bool) {
	for e.h.Len() > 0 {
		it := e.h.Pop()
		v, dist = it.Value, it.Key
		lv := e.labels.find(v) // every pushed node is labelled
		if lv.tag&settledBit != 0 {
			continue // stale lazy-deletion entry
		}
		lv.tag |= settledBit
		e.scanned++
		nbrs, ws := e.g.Neighbors(v)
		for i, u := range nbrs {
			lu, fresh := e.labels.slot(u)
			if lu.tag&settledBit != 0 {
				continue
			}
			if du := dist + ws[i]; fresh || du < lu.dist {
				lu.dist = du
				e.h.Push(du, u)
			}
		}
		return v, dist, true
	}
	return -1, Inf, false
}

// label is one slot of a labelTable: a node, its tentative (once settled,
// final) distance, and tag = epoch·2 + settled. A slot is live when its
// epoch is the table's.
type label struct {
	node graph.NodeID
	tag  uint32
	dist float64
}

const (
	settledBit = 1

	// minSlots is the table a lane starts with (1 KiB).
	minSlots = 64

	// maxRetainedSlots is the largest table a lane keeps across Reset:
	// 128 KiB, room for the ≈ 6 000 labels of a lane that ran to a few
	// dozen reports on a road network. Whole-graph expansions (a sparse P,
	// a disconnected source) grow past it and are not pooled.
	maxRetainedSlots = 1 << 13
)

// labelTable is an insert-only open-addressed map from node to label:
// linear probing over a power-of-two array (Fibonacci hashing), doubling
// at ¾ load, emptied in O(1) by bumping the epoch.
type labelTable struct {
	slots []label
	shift uint8  // 32 − log2(len(slots))
	live  int    // slots of the current epoch
	epoch uint32 // in [1, 1<<31) once reset, which must precede the first slot
}

// reset empties the table, keeping its array.
func (t *labelTable) reset() {
	t.live = 0
	t.epoch++
	if t.epoch == 1<<31 { // tag's epoch field wrapped: old stamps could alias
		clear(t.slots)
		t.epoch = 1
	}
}

// home is the first slot probed for v.
func (t *labelTable) home(v graph.NodeID) uint32 {
	return (uint32(v) * 0x9E3779B1) >> t.shift
}

// find returns v's label, or nil when v has none this epoch.
func (t *labelTable) find(v graph.NodeID) *label {
	if len(t.slots) == 0 {
		return nil
	}
	mask := uint32(len(t.slots) - 1)
	for i := t.home(v); ; i = (i + 1) & mask {
		l := &t.slots[i]
		if l.tag>>1 != t.epoch {
			return nil
		}
		if l.node == v {
			return l
		}
	}
}

// slot returns v's label, inserting an unsettled one when v has none
// (fresh = true; the caller sets its distance). The pointer is good until
// the next slot call, which may grow the table.
func (t *labelTable) slot(v graph.NodeID) (l *label, fresh bool) {
	if 4*(t.live+1) > 3*len(t.slots) {
		if l := t.find(v); l != nil { // no growth for a node already here
			return l, false
		}
		t.grow()
	}
	mask := uint32(len(t.slots) - 1)
	for i := t.home(v); ; i = (i + 1) & mask {
		l := &t.slots[i]
		if l.tag>>1 != t.epoch {
			*l = label{node: v, tag: t.epoch << 1}
			t.live++
			return l, true
		}
		if l.node == v {
			return l, false
		}
	}
}

// grow doubles the array (minSlots at first) and re-seats the live
// labels under the current epoch.
func (t *labelTable) grow() {
	old := t.slots
	n := max(minSlots, 2*len(old))
	t.slots = make([]label, n)
	t.shift = uint8(32 - bits.Len32(uint32(n-1)))
	mask := uint32(n - 1)
	for _, l := range old {
		if l.tag>>1 != t.epoch {
			continue
		}
		i := t.home(l.node)
		for t.slots[i].tag>>1 == t.epoch {
			i = (i + 1) & mask
		}
		t.slots[i] = l
	}
}
