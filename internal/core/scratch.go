package core

import (
	"fannr/internal/graph"
	"fannr/internal/pqueue"
	"fannr/internal/sp"
)

// Scratch is reusable per-query working memory for the algorithm layer:
// the dedup sort buffer behind Query.Validate, the answer list and the
// buffer its subsets share, the distance scratch behind R-List's
// threshold, the visited/counter sets and the expansion lanes of R-List
// and Exact-max, the best-first machinery of IER-kNN, the incumbent heap
// of the top-k queries, and the Dijkstra behind APX-sum's candidate step.
// With a warm Scratch attached (Query.Scratch), steady-state queries on
// batching engines allocate zero heap objects — verified by the
// testing.AllocsPerRun gates in hotpath_test.go.
//
// A Scratch belongs to one query at a time on one goroutine. An
// EnginePool keeps one with each engine and Run hands it to the query,
// so the pair is reused together and never shared across in-flight
// requests; solve gives a query that carries none a fresh one.
//
// Aliasing contract: the answer list and every Answer.Subset live in the
// query's Scratch, for every k, and are overwritten by the next query run
// with the same Scratch. Callers that retain answers past that point must
// copy the list and its subsets first, as EnginePool.Run does; callers
// that run one query per Scratch need not.
type Scratch struct {
	ids     []graph.NodeID             // Validate: sorted-id dedup probe
	answers []Answer                   // answer list
	subset  []graph.NodeID             // the answers' subsets, back to back
	dists   []float64                  // threshold / spare distance buffer
	seen    *graph.NodeSet             // R-List visited set
	counts  *graph.NodeSet             // Exact-max per-point counters
	lanes   expanderPool               // R-List / Exact-max: one resumable Dijkstra per q
	search  *ierSearch                 // IER-kNN best-first traversal state
	top     *pqueue.Heap[graph.NodeID] // k-FANN_R incumbent queue (k > 1), keyed by −distance
	dij     *sp.Dijkstra               // APX-sum candidate expansions
}

// NewScratch returns an empty Scratch; buffers grow on first use and are
// retained across queries.
func NewScratch() *Scratch { return &Scratch{} }

// answerBufs returns a list of n answers and an empty buffer of capacity
// members for their subsets: the Scratch's, grown as needed.
func (q *Query) answerBufs(n, members int) ([]Answer, []graph.NodeID) {
	s := q.Scratch
	if cap(s.answers) < n {
		s.answers = make([]Answer, n)
	}
	if cap(s.subset) < members {
		s.subset = make([]graph.NodeID, 0, members)
	}
	return s.answers[:n], s.subset[:0]
}

// distBuf returns an empty float64 buffer with capacity at least n.
func (q *Query) distBuf(n int) []float64 {
	if cap(q.Scratch.dists) < n {
		q.Scratch.dists = make([]float64, 0, n)
	}
	return q.Scratch.dists[:0]
}

// emptySet returns *set emptied, or a fresh NodeSet over n nodes in its
// place when it is missing or too small. The sets are the Scratch's seen
// (visited-tracking) and counts (payloads as per-node counters).
func emptySet(set **graph.NodeSet, n int) *graph.NodeSet {
	if *set == nil || (*set).Cap() < n {
		*set = graph.NewNodeSet(n)
	} else {
		(*set).Reset()
	}
	return *set
}

// dijkstra returns the Scratch's single-source search bound to g, minted
// on first use and again if the graph differs.
func (q *Query) dijkstra(g *graph.Graph) *sp.Dijkstra {
	if q.Scratch.dij == nil || q.Scratch.dij.Graph() != g {
		q.Scratch.dij = sp.NewDijkstra(g)
	}
	return q.Scratch.dij
}
