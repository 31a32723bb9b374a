package sp

import (
	"math/bits"

	"fannr/internal/graph"
	"fannr/internal/pqueue"
)

// Expander is one lane of the paper's "switchable" multi-source Dijkstra
// (§IV-A implementation details): a resumable Dijkstra from a single
// source that surfaces the members of a report set (the data points P)
// from near to far. R-List and Exact-max run |Q| expanders side by side,
// advancing whichever has the globally nearest unreported data point, so
// the per-lane search state must survive being switched away from — hence
// sparse labels (one open-addressed labelTable per lane) rather than
// graph-sized arrays, keeping the total footprint proportional to the
// visited region, not O(|Q||V|). A lane is re-armed with Reset, so a
// caller that pools its lanes allocates none in steady state.
type Expander struct {
	g       *graph.Graph
	src     graph.NodeID
	h       *pqueue.Heap[graph.NodeID] // lazy-deletion frontier
	labels  labelTable
	report  *graph.NodeSet // shared read-only membership of P
	head    Neighbor
	hasHead bool
	done    bool
	scanned int64
}

// NewExpander starts a resumable expansion from src that reports members
// of report. The report set must not be mutated while the expander is
// live.
func NewExpander(g *graph.Graph, src graph.NodeID, report *graph.NodeSet) *Expander {
	e := &Expander{}
	e.Reset(g, src, report)
	return e
}

// Reset re-arms the lane for a fresh expansion from src over g, reusing
// its label table and frontier. A lane whose last expansion outgrew
// maxRetainedSlots hands that memory back here and starts small again,
// so what a pooled lane keeps between queries is bounded by a constant.
func (e *Expander) Reset(g *graph.Graph, src graph.NodeID, report *graph.NodeSet) {
	if e.h == nil || len(e.labels.slots) > maxRetainedSlots {
		e.h = pqueue.NewHeap[graph.NodeID](16)
		e.labels = labelTable{}
	}
	e.g, e.src, e.report = g, src, report
	e.head, e.hasHead, e.done, e.scanned = Neighbor{}, false, false, 0
	e.h.Reset()
	e.labels.reset()
	l, _ := e.labels.slot(src)
	l.dist = 0
	e.h.Push(0, src)
}

// Source returns the source node of this expander.
func (e *Expander) Source() graph.NodeID { return e.src }

// NodesScanned returns the number of nodes settled so far.
func (e *Expander) NodesScanned() int64 { return e.scanned }

// advance runs the underlying Dijkstra until the next report-set member
// settles, parking it in head.
func (e *Expander) advance() {
	for e.h.Len() > 0 {
		it := e.h.Pop()
		v := it.Value
		lv := e.labels.find(v) // every pushed node is labelled
		if lv.tag&settledBit != 0 {
			continue // stale lazy-deletion entry
		}
		lv.tag |= settledBit
		e.scanned++
		dv := it.Key
		nbrs, ws := e.g.Neighbors(v)
		for i, u := range nbrs {
			lu, fresh := e.labels.slot(u)
			if lu.tag&settledBit != 0 {
				continue
			}
			if du := dv + ws[i]; fresh || du < lu.dist {
				lu.dist = du
				e.h.Push(du, u)
			}
		}
		if e.report.Contains(v) {
			e.head = Neighbor{Node: v, Dist: dv}
			e.hasHead = true
			return
		}
	}
	e.done = true
}

// Peek returns the nearest not-yet-consumed report-set member without
// consuming it. ok is false once the reachable report set is exhausted.
func (e *Expander) Peek() (Neighbor, bool) {
	if !e.hasHead && !e.done {
		e.advance()
	}
	return e.head, e.hasHead
}

// Next consumes and returns the nearest not-yet-consumed report-set
// member. ok is false once the reachable report set is exhausted.
func (e *Expander) Next() (Neighbor, bool) {
	head, ok := e.Peek()
	e.hasHead = false
	return head, ok
}

// SettledDist returns the final distance from the source to v if v has
// already been settled by this expander.
func (e *Expander) SettledDist(v graph.NodeID) (float64, bool) {
	if l := e.labels.find(v); l != nil && l.tag&settledBit != 0 {
		return l.dist, true
	}
	return 0, false
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
