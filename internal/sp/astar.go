package sp

import (
	"fannr/internal/graph"
	"fannr/internal/pqueue"
)

// AStar is a reusable goal-directed point-to-point engine using the
// graph's Euclidean lower bound as its admissible heuristic. On graphs
// without coordinates it degrades to plain Dijkstra (zero heuristic).
type AStar struct {
	g            *graph.Graph
	h            *pqueue.IndexedHeap
	dist         []float64
	stamp        []uint32
	epoch        uint32
	nodesScanned int64
}

// NewAStar returns an engine bound to g.
func NewAStar(g *graph.Graph) *AStar {
	n := g.NumNodes()
	return &AStar{
		g:     g,
		h:     pqueue.NewIndexedHeap(n),
		dist:  make([]float64, n),
		stamp: make([]uint32, n),
	}
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
	a.epoch++
	a.h.Reset()
	if a.epoch == 0 {
		for i := range a.stamp {
			a.stamp[i] = 0
		}
		a.epoch = 1
	}
	a.stamp[src] = a.epoch
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
			du := dv + ws[i]
			if a.stamp[u] != a.epoch || du < a.dist[u] {
				a.stamp[u] = a.epoch
				a.dist[u] = du
				a.h.Update(u, du+a.g.LowerBound(u, dst))
			}
		}
	}
	return Inf
}
