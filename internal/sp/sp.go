// Package sp implements the shortest-path engines of fannr: Dijkstra, A*
// (goal-directed point-to-point search), INE (incremental network
// expansion, the paper's default g_φ implementation), and the switchable
// multi-source expansion that underlies the R-List and Exact-max
// algorithms, plus the landmark distance vectors shard plans bound with.
//
// All engines are stateful and reusable: they keep stamped scratch arrays
// sized to the graph so that running thousands of queries allocates
// nothing. Engines are not safe for concurrent use; create one per
// goroutine.
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
	g      *graph.Graph
	h      *pqueue.IndexedHeap
	dist   []float64
	parent []graph.NodeID
	stamp  []uint32
	epoch  uint32
	// bdist/bstamp record final (settled) distances for DistBatch. dist
	// cannot serve as the record: it holds tentative values for
	// reached-but-unsettled nodes when the search truncates early.
	// bdist[v] is the settled distance when >= 0 and "requested target,
	// not yet settled" when -1; bstamp gates both on bepoch, which
	// advances once per batch *source*, not per call, so consecutive
	// same-source batches resume one search. bsrc/brun identify that live
	// search: brun is the d.epoch it runs under, so any interleaved
	// Run/Dist/KNNAmong (each calls reset, bumping d.epoch) invalidates
	// the resume and the next batch starts fresh.
	bdist  []float64
	bstamp []uint32
	bepoch uint32
	bsrc   graph.NodeID
	brun   uint32
	// nodesScanned counts settled nodes since construction; used by the
	// experiment harness to report search effort.
	nodesScanned int64
}

// NewDijkstra returns an engine bound to g.
func NewDijkstra(g *graph.Graph) *Dijkstra {
	n := g.NumNodes()
	return &Dijkstra{
		g:      g,
		h:      pqueue.NewIndexedHeap(n),
		dist:   make([]float64, n),
		parent: make([]graph.NodeID, n),
		stamp:  make([]uint32, n),
	}
}

// Graph returns the graph the engine is bound to.
func (d *Dijkstra) Graph() *graph.Graph { return d.g }

// NodesScanned returns the total number of nodes settled by this engine
// since construction.
func (d *Dijkstra) NodesScanned() int64 { return d.nodesScanned }

func (d *Dijkstra) reset() {
	d.epoch++
	d.h.Reset()
	if d.epoch == 0 {
		for i := range d.stamp {
			d.stamp[i] = 0
		}
		d.epoch = 1
	}
}

// Run executes Dijkstra from src, invoking visit for every settled node in
// nondecreasing distance order. Returning false from visit stops the
// search. Distances computed during the run remain readable through
// Distance until the next search on this engine.
func (d *Dijkstra) Run(src graph.NodeID, visit func(v graph.NodeID, dist float64) bool) {
	d.reset()
	d.stamp[src] = d.epoch
	d.dist[src] = 0
	d.parent[src] = -1
	d.h.Update(src, 0)
	for d.h.Len() > 0 {
		v, dv := d.h.Pop()
		d.nodesScanned++
		if !visit(v, dv) {
			return
		}
		nbrs, ws := d.g.Neighbors(v)
		for i, u := range nbrs {
			du := dv + ws[i]
			if d.stamp[u] != d.epoch || du < d.dist[u] {
				d.stamp[u] = d.epoch
				d.dist[u] = du
				d.parent[u] = v
				d.h.Update(u, du)
			}
		}
	}
}

// Path returns the shortest path from src to dst as an inclusive node
// sequence together with its length. It returns (nil, +Inf) when dst is
// unreachable.
func (d *Dijkstra) Path(src, dst graph.NodeID) ([]graph.NodeID, float64) {
	if src == dst {
		return []graph.NodeID{src}, 0
	}
	dist := d.Dist(src, dst)
	if math.IsInf(dist, 1) {
		return nil, dist
	}
	var rev []graph.NodeID
	for v := dst; v != -1; v = d.parent[v] {
		rev = append(rev, v)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev, dist
}

// Distance returns the distance to v computed by the most recent search,
// or Inf if v was not reached.
func (d *Dijkstra) Distance(v graph.NodeID) float64 {
	if d.stamp[v] != d.epoch {
		return Inf
	}
	return d.dist[v]
}

// Dist returns the shortest-path distance from src to dst, terminating the
// expansion as soon as dst is settled. It returns Inf when dst is
// unreachable.
func (d *Dijkstra) Dist(src, dst graph.NodeID) float64 {
	if src == dst {
		return 0
	}
	out := Inf
	d.Run(src, func(v graph.NodeID, dv float64) bool {
		if v == dst {
			out = dv
			return false
		}
		return true
	})
	return out
}

// All computes distances from src to every node, returning a freshly
// allocated slice indexed by node id (Inf for unreachable nodes).
func (d *Dijkstra) All(src graph.NodeID) []float64 {
	out := make([]float64, d.g.NumNodes())
	for i := range out {
		out[i] = Inf
	}
	d.Run(src, func(v graph.NodeID, dv float64) bool {
		out[v] = dv
		return true
	})
	return out
}

// DistBatch computes shortest-path distances from src to every member of
// targets in one search truncated when the last distinct target settles,
// writing out[i] for targets[i] (+Inf for unreachable). It replaces
// len(targets) independent Dist calls with a single frontier expansion —
// and consecutive calls with the same src resume that expansion where it
// stopped, so an incremental caller (IER's chunked candidate scan) pays
// one progressive search total, not one truncated search per chunk. Any
// interleaved Run/Dist/KNNAmong discards the resumable frontier; the
// next batch then starts fresh. targets may contain duplicates and src
// itself; len(out) must be at least len(targets). Warm engines allocate
// nothing.
func (d *Dijkstra) DistBatch(src graph.NodeID, targets []graph.NodeID, out []float64) {
	if len(targets) == 0 {
		return
	}
	_ = out[len(targets)-1]
	if d.bstamp == nil {
		d.bdist = make([]float64, len(d.stamp))
		d.bstamp = make([]uint32, len(d.stamp))
	}
	if d.brun == 0 || d.brun != d.epoch || d.bsrc != src {
		d.bepoch++
		if d.bepoch == 0 {
			for i := range d.bstamp {
				d.bstamp[i] = 0
			}
			d.bepoch = 1
		}
		d.reset()
		d.stamp[src] = d.epoch
		d.dist[src] = 0
		d.parent[src] = -1
		d.h.Update(src, 0)
		d.bsrc = src
		d.brun = d.epoch
	}
	pending := 0
	for _, t := range targets {
		if d.bstamp[t] != d.bepoch {
			d.bstamp[t] = d.bepoch
			d.bdist[t] = -1 // requested, not yet settled
			pending++
		}
	}
	// Inlined Run loop: a visit closure would capture the pending counter
	// and heap-allocate, defeating the zero-alloc contract. Every settled
	// node is recorded — not just targets — so a later same-source call
	// can serve any already-settled target without touching the heap.
	for pending > 0 && d.h.Len() > 0 {
		v, dv := d.h.Pop()
		d.nodesScanned++
		if d.bstamp[v] == d.bepoch && d.bdist[v] < 0 {
			pending--
		}
		d.bstamp[v] = d.bepoch
		d.bdist[v] = dv
		nbrs, ws := d.g.Neighbors(v)
		for i, u := range nbrs {
			du := dv + ws[i]
			if d.stamp[u] != d.epoch || du < d.dist[u] {
				d.stamp[u] = d.epoch
				d.dist[u] = du
				d.parent[u] = v
				d.h.Update(u, du)
			}
		}
	}
	for i, t := range targets {
		if d.bstamp[t] == d.bepoch && d.bdist[t] >= 0 {
			out[i] = d.bdist[t]
		} else {
			out[i] = Inf // frontier exhausted: t is unreachable from src
		}
	}
}

// KNNAmong returns the k nearest members of targets (by network distance
// from src) in nondecreasing order, fewer if the reachable portion of
// targets is smaller. This is the INE (incremental network expansion)
// primitive: Dijkstra that stops after k targets settle.
//
// The result slice is appended to dst and returned.
func (d *Dijkstra) KNNAmong(src graph.NodeID, targets *graph.NodeSet, k int, dst []Neighbor) []Neighbor {
	if k <= 0 {
		return dst
	}
	d.Run(src, func(v graph.NodeID, dv float64) bool {
		if targets.Contains(v) {
			dst = append(dst, Neighbor{Node: v, Dist: dv})
			if len(dst) >= k {
				return false
			}
		}
		return true
	})
	return dst
}
