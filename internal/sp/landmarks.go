package sp

import (
	"math"

	"fannr/internal/graph"
)

// DefaultLandmarks is the landmark count of every shard plan fannr
// builds.
const DefaultLandmarks = 8

// Landmarks picks up to count landmarks by farthest-point sampling and
// returns their distance vectors (one full Dijkstra each): start at node
// 0, then repeatedly take the reachable node maximizing the minimum
// distance to the landmarks chosen so far. It stops early once no node
// is farther than the last landmark (a tiny or disconnected graph).
// By the triangle inequality, |δ(l,t) − δ(l,v)| ≤ δ(v,t) for every
// vector δ(l,·): a lower bound on network distance that needs no
// coordinates.
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
