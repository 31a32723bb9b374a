package difftest

import (
	"fannr/internal/graph"
	"fannr/internal/pqueue"
	"fannr/internal/sp"
)

// MapExpander is sp.Expander as it was first written — tentative
// distances and the settled set in two Go maps — kept as the reference
// the table-backed lane must reproduce step for step
// (TestExpanderMatchesReference), and as the reference behind APX-sum's
// candidate corpus test. Only tests and benchmarks construct it.
type MapExpander struct {
	g       *graph.Graph
	h       *pqueue.Heap[graph.NodeID] // lazy-deletion frontier
	dist    map[graph.NodeID]float64
	settled map[graph.NodeID]struct{}
	scanned int64
}

// NewMapExpander starts a search from src over g.
func NewMapExpander(g *graph.Graph, src graph.NodeID) *MapExpander {
	e := &MapExpander{
		g:       g,
		h:       pqueue.NewHeap[graph.NodeID](16),
		dist:    make(map[graph.NodeID]float64, 64),
		settled: make(map[graph.NodeID]struct{}, 64),
	}
	e.dist[src] = 0
	e.h.Push(0, src)
	return e
}

// NodesScanned returns the number of nodes settled so far.
func (e *MapExpander) NodesScanned() int64 { return e.scanned }

// Step settles the nearest node not yet settled and returns it with its
// distance; ok is false once every reachable node has settled.
func (e *MapExpander) Step() (graph.NodeID, float64, bool) {
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
		return v, dv, true
	}
	return -1, sp.Inf, false
}
