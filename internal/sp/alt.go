package sp

import (
	"math"

	"fannr/internal/graph"
	"fannr/internal/pqueue"
)

// ALT is an A*-with-landmarks point-to-point engine (Goldberg & Harrelson
// style): a handful of landmarks with precomputed distance vectors feed
// triangle-inequality lower bounds |δ(l,t) − δ(l,v)| ≤ δ(v,t), which
// unlike the Euclidean heuristic need no coordinates and adapt to the
// network's metric (travel times included). The paper's related-work
// section groups this with the lower-bound accelerations of Dijkstra.
type ALT struct {
	g            *graph.Graph
	land         [][]float64 // per landmark: distances to every node
	h            *pqueue.IndexedHeap
	dist         []float64
	stamp        []uint32
	epoch        uint32
	nodesScanned int64
}

// DefaultLandmarks is the landmark count of every ALT engine and shard
// plan fannr builds.
const DefaultLandmarks = 8

// NewALT picks numLandmarks landmarks (DefaultLandmarks when < 1) and
// precomputes their distance vectors (see Landmarks).
func NewALT(g *graph.Graph, numLandmarks int) *ALT {
	if numLandmarks < 1 {
		numLandmarks = DefaultLandmarks
	}
	n := g.NumNodes()
	return &ALT{
		g:     g,
		land:  Landmarks(g, numLandmarks),
		h:     pqueue.NewIndexedHeap(n),
		dist:  make([]float64, n),
		stamp: make([]uint32, n),
	}
}

// Landmarks picks up to count landmarks by farthest-point sampling and
// returns their distance vectors (one full Dijkstra each): start at node
// 0, then repeatedly take the reachable node maximizing the minimum
// distance to the landmarks chosen so far. It stops early once no node
// is farther than the last landmark (a tiny or disconnected graph).
func Landmarks(g *graph.Graph, count int) [][]float64 {
	n := g.NumNodes()
	d := NewDijkstra(g)
	minDist := make([]float64, n)
	for i := range minDist {
		minDist[i] = math.Inf(1)
	}
	var land [][]float64
	cur := graph.NodeID(0)
	for len(land) < count {
		vec := d.All(cur)
		land = append(land, vec)
		far, farDist := cur, -1.0
		for v := 0; v < n; v++ {
			if math.IsInf(vec[v], 1) {
				continue // unreachable nodes cannot serve as landmarks
			}
			if vec[v] < minDist[v] {
				minDist[v] = vec[v]
			}
			if minDist[v] > farDist {
				farDist = minDist[v]
				far = graph.NodeID(v)
			}
		}
		if far == cur {
			break
		}
		cur = far
	}
	return land
}

// NumLandmarks returns the number of landmarks actually placed.
func (a *ALT) NumLandmarks() int { return len(a.land) }

// Clone returns an engine sharing the immutable landmark tables but
// owning fresh search state, so multiple goroutines (or abandonable
// harness runs) can query independently without re-running the landmark
// Dijkstras.
func (a *ALT) Clone() *ALT {
	n := a.g.NumNodes()
	return &ALT{
		g:     a.g,
		land:  a.land,
		h:     pqueue.NewIndexedHeap(n),
		dist:  make([]float64, n),
		stamp: make([]uint32, n),
	}
}

// MemoryBytes estimates the landmark-table footprint.
func (a *ALT) MemoryBytes() int64 {
	return int64(len(a.land)) * int64(a.g.NumNodes()) * 8
}

// lowerBound returns max over landmarks of |δ(l,t) − δ(l,v)|.
func (a *ALT) lowerBound(v, t graph.NodeID) float64 {
	best := 0.0
	for _, vec := range a.land {
		dv, dt := vec[v], vec[t]
		if math.IsInf(dv, 1) || math.IsInf(dt, 1) {
			continue
		}
		if diff := math.Abs(dt - dv); diff > best {
			best = diff
		}
	}
	return best
}

// Graph returns the graph the engine is bound to.
func (a *ALT) Graph() *graph.Graph { return a.g }

// NodesScanned returns the total nodes settled since construction.
func (a *ALT) NodesScanned() int64 { return a.nodesScanned }

// Dist returns the shortest-path distance from src to dst, or +Inf when
// unreachable.
func (a *ALT) Dist(src, dst graph.NodeID) float64 {
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
	a.h.Update(src, a.lowerBound(src, dst))
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
				a.h.Update(u, du+a.lowerBound(u, dst))
			}
		}
	}
	return Inf
}
