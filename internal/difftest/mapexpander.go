package difftest

import (
	"fannr/internal/graph"
	"fannr/internal/pqueue"
	"fannr/internal/sp"
)

// MapExpander is sp.Expander as it was first written — tentative
// distances and the settled set in two Go maps — kept as the reference
// the table-backed lane must reproduce report for report
// (TestExpanderMatchesReference), and as the reference behind APX-sum's
// candidate corpus test. Only tests and benchmarks construct it.
type MapExpander struct {
	g       *graph.Graph
	h       *pqueue.Heap[graph.NodeID] // lazy-deletion frontier
	dist    map[graph.NodeID]float64
	settled map[graph.NodeID]struct{}
	report  *graph.NodeSet
	head    sp.Neighbor
	hasHead bool
	done    bool
	scanned int64
}

// NewMapExpander starts a resumable expansion from src that reports
// members of report.
func NewMapExpander(g *graph.Graph, src graph.NodeID, report *graph.NodeSet) *MapExpander {
	e := &MapExpander{
		g:       g,
		h:       pqueue.NewHeap[graph.NodeID](16),
		dist:    make(map[graph.NodeID]float64, 64),
		settled: make(map[graph.NodeID]struct{}, 64),
		report:  report,
	}
	e.dist[src] = 0
	e.h.Push(0, src)
	return e
}

// NodesScanned returns the number of nodes settled so far.
func (e *MapExpander) NodesScanned() int64 { return e.scanned }

func (e *MapExpander) advance() {
	for e.h.Len() > 0 {
		it := e.h.Pop()
		v := it.Value
		if _, ok := e.settled[v]; ok {
			continue // stale lazy-deletion entry
		}
		e.settled[v] = struct{}{}
		e.scanned++
		dv := it.Key
		nbrs, ws := e.g.Neighbors(v)
		for i, u := range nbrs {
			if _, ok := e.settled[u]; ok {
				continue
			}
			du := dv + ws[i]
			if old, ok := e.dist[u]; !ok || du < old {
				e.dist[u] = du
				e.h.Push(du, u)
			}
		}
		if e.report.Contains(v) {
			e.head = sp.Neighbor{Node: v, Dist: dv}
			e.hasHead = true
			return
		}
	}
	e.done = true
}

// Peek returns the nearest not-yet-consumed report-set member.
func (e *MapExpander) Peek() (sp.Neighbor, bool) {
	if !e.hasHead && !e.done {
		e.advance()
	}
	return e.head, e.hasHead
}

// Next consumes and returns the nearest not-yet-consumed report-set
// member; ok is false once the reachable report set is exhausted.
func (e *MapExpander) Next() (sp.Neighbor, bool) {
	head, ok := e.Peek()
	e.hasHead = false
	return head, ok
}

// SettledDist returns the final distance to v once v has settled.
func (e *MapExpander) SettledDist(v graph.NodeID) (float64, bool) {
	if _, ok := e.settled[v]; !ok {
		return 0, false
	}
	return e.dist[v], true
}
