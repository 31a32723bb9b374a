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

// BiDijkstra is a reusable bidirectional Dijkstra point-to-point engine.
// It needs no coordinates and typically settles far fewer nodes than
// unidirectional Dijkstra on road networks.
type BiDijkstra struct {
	g            *graph.Graph
	fh, bh       *pqueue.IndexedHeap
	fd, bd       []float64
	fs, bs       []uint32
	epoch        uint32
	nodesScanned int64
}

// NewBiDijkstra returns an engine bound to g.
func NewBiDijkstra(g *graph.Graph) *BiDijkstra {
	n := g.NumNodes()
	return &BiDijkstra{
		g:  g,
		fh: pqueue.NewIndexedHeap(n),
		bh: pqueue.NewIndexedHeap(n),
		fd: make([]float64, n),
		bd: make([]float64, n),
		fs: make([]uint32, n),
		bs: make([]uint32, n),
	}
}

// Graph returns the graph the engine is bound to.
func (b *BiDijkstra) Graph() *graph.Graph { return b.g }

// NodesScanned returns the total number of nodes settled by this engine
// since construction.
func (b *BiDijkstra) NodesScanned() int64 { return b.nodesScanned }

// Dist returns the shortest-path distance from src to dst, or Inf when
// unreachable.
func (b *BiDijkstra) Dist(src, dst graph.NodeID) float64 {
	if src == dst {
		return 0
	}
	b.epoch++
	b.fh.Reset()
	b.bh.Reset()
	if b.epoch == 0 {
		for i := range b.fs {
			b.fs[i] = 0
			b.bs[i] = 0
		}
		b.epoch = 1
	}
	b.fs[src] = b.epoch
	b.fd[src] = 0
	b.fh.Update(src, 0)
	b.bs[dst] = b.epoch
	b.bd[dst] = 0
	b.bh.Update(dst, 0)

	best := Inf
	relax := func(h *pqueue.IndexedHeap, dist []float64, stamp []uint32,
		other []float64, otherStamp []uint32) bool {
		if h.Len() == 0 {
			return false
		}
		v, dv := h.Pop()
		b.nodesScanned++
		nbrs, ws := b.g.Neighbors(v)
		for i, u := range nbrs {
			du := dv + ws[i]
			if stamp[u] != b.epoch || du < dist[u] {
				stamp[u] = b.epoch
				dist[u] = du
				h.Update(u, du)
			}
			if otherStamp[u] == b.epoch {
				if cand := du + other[u]; cand < best {
					best = cand
				}
			}
		}
		return true
	}

	for b.fh.Len() > 0 || b.bh.Len() > 0 {
		fMin, bMin := Inf, Inf
		if b.fh.Len() > 0 {
			_, fMin = b.fh.Min()
		}
		if b.bh.Len() > 0 {
			_, bMin = b.bh.Min()
		}
		if fMin+bMin >= best {
			break
		}
		if fMin <= bMin {
			relax(b.fh, b.fd, b.fs, b.bd, b.bs)
		} else {
			relax(b.bh, b.bd, b.bs, b.fd, b.fs)
		}
	}
	return best
}
