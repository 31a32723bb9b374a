package phl

import (
	"sort"

	"fannr/internal/graph"
	"fannr/internal/pqueue"
)

// sampleTrees is how many shortest-path trees hubOrder grows to break
// degree ties. A label's size is decided by how early the vertices that
// many shortest paths run through become hubs; degree says most of it,
// but two thirds of a road network's vertices have degree 3 or 4, and
// ranking those by id puts consecutive hubs next to each other (the
// generator numbers nodes row by row). Entries per node on NW 1/64
// (16 865 nodes) by what breaks the ties:
//
//	node id                           116.5
//	a shuffle                          91.9
//	tree weight, 4 / 8 / 16 trees      82.8 / 82.0 / 79.5
//	tree weight, 32 / 128 trees        79.8 / 79.7
//
// Sixteen trees are 28 ms of Dijkstra there against a 0.4 s build; past
// them the labels stop shrinking. Ranking by tree weight alone, without
// degree, gives 92 at 64 trees.
const sampleTrees = 16

// sampleRoots returns the roots of the sampled trees: sampleTrees node
// ids evenly spaced over [0, n), each distinct id once — below
// sampleTrees nodes the spacing repeats ids, and a second tree from the
// same root would only double the first one's weights.
func sampleRoots(n int) []graph.NodeID {
	var roots []graph.NodeID
	for s := 0; s < sampleTrees && n > 0; s++ {
		if r := graph.NodeID((s*n + n/2) / sampleTrees); len(roots) == 0 || roots[len(roots)-1] != r {
			roots = append(roots, r)
		}
	}
	return roots
}

// treeWeights returns, for every vertex, how many proper descendants it
// has in the shortest-path trees grown from roots, summed over the trees:
// a sample of how many shortest paths run through it. A vertex no root
// reaches weighs 0. h is the caller's heap, emptied on return.
//
// A vertex enters a tree under the neighbour whose pop last lowered its
// key, so a parent is always popped before its children — also across an
// edge so light that parent and child sit at the same distance, since the
// child is still in the heap when the parent pops — and one pass over the
// pop order backwards has every subtree complete before it is added to
// its parent's.
func treeWeights(g *graph.Graph, roots []graph.NodeID, h *pqueue.IndexedHeap) []int64 {
	n := g.NumNodes()
	weight := make([]int64, n)
	parent := make([]graph.NodeID, n)
	below := make([]int32, n)
	popped := make([]graph.NodeID, 0, n)
	for _, root := range roots {
		h.Reset()
		h.Update(root, 0)
		for h.Len() > 0 {
			v, dv := h.Pop()
			popped = append(popped, v)
			nbrs, ws := g.Neighbors(v)
			for i, u := range nbrs {
				if h.Update(u, dv+ws[i]) {
					parent[u] = v
				}
			}
		}
		for i := len(popped) - 1; i > 0; i-- {
			v := popped[i]
			weight[v] += int64(below[v])
			below[parent[v]] += below[v] + 1
		}
		weight[root] += int64(below[root])
		for _, v := range popped {
			below[v] = 0
		}
		popped = popped[:0]
	}
	return weight
}

// hubOrder returns the vertices of g in the order Build makes them hubs:
// by descending degree, ties by descending tree weight (see sampleTrees),
// remaining ties — among them every vertex of a component no sampled
// root lies in — by ascending id. The order is a function of g alone.
func hubOrder(g *graph.Graph, h *pqueue.IndexedHeap) []graph.NodeID {
	n := g.NumNodes()
	weight := treeWeights(g, sampleRoots(n), h)
	order := make([]graph.NodeID, n)
	for i := range order {
		order[i] = graph.NodeID(i)
	}
	sort.Slice(order, func(i, j int) bool {
		u, v := order[i], order[j]
		if du, dv := g.Degree(u), g.Degree(v); du != dv {
			return du > dv
		}
		if weight[u] != weight[v] {
			return weight[u] > weight[v]
		}
		return u < v
	})
	return order
}
