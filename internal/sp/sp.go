// Package sp implements the shortest-path engines of fannr: Dijkstra,
// whose one-settle Step is what the INE stream (incremental network
// expansion) draws from, Expander, the same Start and Step over sparse
// labels, one lane per query point of R-List and Exact-max, A*
// (goal-directed point-to-point search), and the landmark distance
// vectors shard plans bound with.
//
// All engines are stateful and reusable: Dijkstra and A* keep their
// labels in a pqueue.IndexedHeap sized to the graph and emptied in O(1)
// per search, so running thousands of queries allocates nothing. Engines
// are not safe for concurrent use; create one per goroutine.
package sp

import (
	"math"

	"fannr/internal/graph"
	"fannr/internal/pqueue"
)

// Neighbor is a node paired with its network distance from a query source.
type Neighbor struct {
	Node graph.NodeID
	Dist float64
}

// Inf is the distance reported for unreachable nodes.
var Inf = math.Inf(1)

// Dijkstra is a reusable single-source search engine.
type Dijkstra struct {
	g *graph.Graph
	h *pqueue.IndexedHeap // the search's labels: a settled node's distance is its Label
	// nodesScanned counts settled nodes since construction; core's
	// engines read it through NodesScanned to count settles per query.
	nodesScanned int64
}

// NewDijkstra returns an engine bound to g.
func NewDijkstra(g *graph.Graph) *Dijkstra {
	return &Dijkstra{g: g, h: pqueue.NewIndexedHeap(g.NumNodes())}
}

// Graph returns the graph the engine is bound to.
func (d *Dijkstra) Graph() *graph.Graph { return d.g }

// NodesScanned returns the total number of nodes settled by this engine
// since construction.
func (d *Dijkstra) NodesScanned() int64 { return d.nodesScanned }

// Start begins a search from src, discarding any search in progress;
// Step then settles its nodes one at a time.
func (d *Dijkstra) Start(src graph.NodeID) {
	d.h.Reset()
	d.h.Update(src, 0)
}

// Step settles the nearest node not yet settled, relaxes its edges and
// returns it with its distance. That distance is the frontier minimum:
// no node still to settle is nearer. ok is false once every node
// reachable from the source has settled.
func (d *Dijkstra) Step() (v graph.NodeID, dist float64, ok bool) {
	if d.h.Len() == 0 {
		return -1, Inf, false
	}
	v, dist = d.h.Pop()
	d.nodesScanned++
	nbrs, ws := d.g.Neighbors(v)
	for i, u := range nbrs {
		d.h.Update(u, dist+ws[i])
	}
	return v, dist, true
}

// Run executes Dijkstra from src, invoking visit for every settled node in
// nondecreasing distance order. Returning false from visit stops the
// search.
func (d *Dijkstra) Run(src graph.NodeID, visit func(v graph.NodeID, dist float64) bool) {
	d.Start(src)
	for v, dv, ok := d.Step(); ok && visit(v, dv); v, dv, ok = d.Step() {
	}
}

// Dist returns the shortest-path distance from src to dst, terminating the
// expansion as soon as dst is settled. It returns Inf when dst is
// unreachable.
func (d *Dijkstra) Dist(src, dst graph.NodeID) float64 {
	if src == dst {
		return 0
	}
	d.Start(src)
	for v, dv, ok := d.Step(); ok; v, dv, ok = d.Step() {
		if v == dst {
			return dv
		}
	}
	return Inf
}

// All computes distances from src to every node, returning a freshly
// allocated slice indexed by node id (Inf for unreachable nodes).
func (d *Dijkstra) All(src graph.NodeID) []float64 {
	out := make([]float64, d.g.NumNodes())
	for i := range out {
		out[i] = Inf
	}
	d.Start(src)
	for v, dv, ok := d.Step(); ok; v, dv, ok = d.Step() {
		out[v] = dv
	}
	return out
}

// DistBatch writes to out[i] the distance from src to targets[i] (+Inf
// when unreachable), from one search truncated once the last target
// settles. targets may contain duplicates and src itself; len(out) must
// be at least len(targets).
func (d *Dijkstra) DistBatch(src graph.NodeID, targets []graph.NodeID, out []float64) {
	d.Start(src)
	for i := 0; i < len(targets); {
		if _, settled := d.h.Label(targets[i]); settled {
			i++
		} else if _, _, ok := d.Step(); !ok {
			break // every reachable node has settled
		}
	}
	for i, t := range targets {
		out[i] = Inf
		if dt, settled := d.h.Label(t); settled {
			out[i] = dt
		}
	}
}
