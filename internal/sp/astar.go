package sp

import (
	"fannr/internal/graph"
	"fannr/internal/pqueue"
)

// AStar is a reusable goal-directed point-to-point engine using the
// graph's Euclidean lower bound as its admissible heuristic. On graphs
// without coordinates it degrades to plain Dijkstra (zero heuristic).
type AStar struct {
	g *graph.Graph
	h *pqueue.IndexedHeap
	// dist holds g, the distance from the source, of every node the heap
	// has accepted since the last Reset; the heap's own key is g plus the
	// heuristic.
	dist         []float64
	nodesScanned int64
}

// NewAStar returns an engine bound to g.
func NewAStar(g *graph.Graph) *AStar {
	n := g.NumNodes()
	return &AStar{g: g, h: pqueue.NewIndexedHeap(n), dist: make([]float64, n)}
}

// Graph returns the graph the engine is bound to.
func (a *AStar) Graph() *graph.Graph { return a.g }

// NodesScanned returns the total number of nodes settled by this engine
// since construction.
func (a *AStar) NodesScanned() int64 { return a.nodesScanned }

// Dist returns the shortest-path distance from src to dst, or Inf when
// unreachable.
func (a *AStar) Dist(src, dst graph.NodeID) float64 {
	if src == dst {
		return 0
	}
	a.h.Reset()
	a.dist[src] = 0
	a.h.Update(src, a.g.LowerBound(src, dst))
	for a.h.Len() > 0 {
		v, _ := a.h.Pop()
		a.nodesScanned++
		dv := a.dist[v]
		if v == dst {
			return dv
		}
		nbrs, ws := a.g.Neighbors(v)
		for i, u := range nbrs {
			if du := dv + ws[i]; a.h.Update(u, du+a.g.LowerBound(u, dst)) {
				a.dist[u] = du
			}
		}
	}
	return Inf
}
