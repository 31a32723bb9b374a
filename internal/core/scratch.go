package core

import (
	"fannr/internal/graph"
	"fannr/internal/pqueue"
	"fannr/internal/sp"
)

// Scratch is reusable per-query working memory for the algorithm layer:
// the dedup sort buffer behind Query.Validate, the answer subset buffer,
// the distance scratch behind R-List's threshold, the visited/counter
// sets and the expansion lanes of R-List and Exact-max, the best-first
// machinery of IER-kNN, the incumbent heap of the top-k queries, and the
// Dijkstra behind APX-sum's candidate step.
// With a warm Scratch attached (Query.Scratch), steady-state queries on
// batching engines allocate zero heap objects — verified by the
// testing.AllocsPerRun gates in hotpath_test.go.
//
// A Scratch belongs to one query at a time on one goroutine. EnginePool
// hands one out per engine checkout (EnginePool.GetScratch /
// PutScratch), which ties its lifetime to the engine's: the pair is
// reused together and never shared across in-flight requests.
//
// Aliasing contract: when Query.Scratch is set, Answer.Subset may alias
// Scratch memory and is invalidated by the next query run with the same
// Scratch. Callers that retain answers past that point (caches, batch
// executors) must copy the subset first; callers that run one query per
// checkout need not.
type Scratch struct {
	ids    []graph.NodeID                // Validate: sorted-id dedup probe
	subset []graph.NodeID                // answer subset buffer
	dists  []float64                     // threshold / spare distance buffer
	seen   *graph.NodeSet                // R-List visited set
	counts *graph.NodeSet                // Exact-max per-point counters
	lanes  expanderPool                  // R-List / Exact-max: one resumable Dijkstra per q
	search *ierSearch                    // IER-kNN best-first traversal state
	top    *pqueue.MaxHeap[graph.NodeID] // k-FANN_R incumbent queue (k > 1)
	dij    *sp.Dijkstra                  // APX-sum candidate expansions
}

// NewScratch returns an empty Scratch; buffers grow on first use and are
// retained across queries.
func NewScratch() *Scratch { return &Scratch{} }

// subsetBuf returns the reusable subset buffer to append an answer into
// (nil without a Scratch — callers pass it straight to GPhi.Subset).
func (q *Query) subsetBuf() []graph.NodeID {
	if q.Scratch == nil {
		return nil
	}
	return q.Scratch.subset[:0]
}

// keepSubset stores the final subset slice back into the Scratch so its
// capacity is reused by the next query, and returns it unchanged.
func (q *Query) keepSubset(s []graph.NodeID) []graph.NodeID {
	if q.Scratch != nil {
		q.Scratch.subset = s
	}
	return s
}

// distBuf returns an empty float64 buffer with capacity at least n.
func (q *Query) distBuf(n int) []float64 {
	if q.Scratch == nil {
		return make([]float64, 0, n)
	}
	if cap(q.Scratch.dists) < n {
		q.Scratch.dists = make([]float64, 0, n)
	}
	return q.Scratch.dists[:0]
}

// seenSet returns an empty NodeSet over n nodes for visited-tracking.
func (q *Query) seenSet(n int) *graph.NodeSet {
	if q.Scratch == nil {
		return graph.NewNodeSet(n)
	}
	if q.Scratch.seen == nil || q.Scratch.seen.Cap() < n {
		q.Scratch.seen = graph.NewNodeSet(n)
		return q.Scratch.seen
	}
	q.Scratch.seen.Reset()
	return q.Scratch.seen
}

// countSet returns an empty NodeSet over n nodes whose payloads serve as
// per-node counters.
func (q *Query) countSet(n int) *graph.NodeSet {
	if q.Scratch == nil {
		return graph.NewNodeSet(n)
	}
	if q.Scratch.counts == nil || q.Scratch.counts.Cap() < n {
		q.Scratch.counts = graph.NewNodeSet(n)
		return q.Scratch.counts
	}
	q.Scratch.counts.Reset()
	return q.Scratch.counts
}

// dijkstra returns a single-source search bound to g: the Scratch's, when
// there is one, minted on first use and again if the graph differs.
func (q *Query) dijkstra(g *graph.Graph) *sp.Dijkstra {
	if q.Scratch == nil {
		return sp.NewDijkstra(g)
	}
	if q.Scratch.dij == nil || q.Scratch.dij.Graph() != g {
		q.Scratch.dij = sp.NewDijkstra(g)
	}
	return q.Scratch.dij
}
