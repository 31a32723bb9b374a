// Package core implements the paper's contribution: flexible aggregate
// nearest neighbor queries in road networks (FANN_R) and their top-k
// extension (k-FANN_R).
//
// Given data points P, query points Q, a flexibility φ ∈ (0,1] and an
// aggregate g ∈ {max, sum}, an FANN_R query returns the p* ∈ P minimizing
// the aggregate network distance to its ⌈φ|Q|⌉ nearest members of Q.
//
// The paper states every algorithm as one search that keeps an incumbent
// and is parameterized by g_φ, and §V turns each into k-FANN_R by
// replacing the incumbent with a bounded queue. The package is built the
// same way (skeleton.go): solve validates the query, opens the algorithm's
// span, runs one search loop over a topK — the bounded incumbent queue,
// a scalar with no heap at k = 1 — and materialises the answers. A loop
// only offers candidates (through one eval, which hands the k-th
// incumbent distance to engines that can stop an evaluation that cannot
// beat it) and reads that distance itself:
//
//   - GD — enumerate P, the generalized Dijkstra-based baseline (§III-A)
//   - RList — the threshold algorithm over per-query-point queues (§III-B)
//   - IERKNN — the IER-kNN best-first framework over an R-tree on P
//     (§III-C, Algorithm 1)
//   - ExactMax — the counter-based exact algorithm for max (§IV-A,
//     Algorithm 2)
//   - APXSum — the 3-approximation for sum (§IV-B, Algorithm 3; 2-approx
//     when Q ⊆ P): a candidate reduction followed by the GD loop
//
// Each has one entry point that takes the answer count k — k = 1 is
// FANN_R, k > 1 the k-FANN_R of §V — and Dispatch binds the five wire
// names to the same body.
//
// A GPhi engine computes the flexible aggregate function g_φ(p, Q), which
// for both aggregates is a fold over the k = ⌈φ|Q|⌉ network-nearest
// members of Q. So an engine (INE, A*, PHL, GTree, IER-A*/PHL/GTree —
// the paper's Table I) is only its neighbour search; Dist and Subset
// derive from the k-nearest list it yields through one fold (aggSorted)
// and one projection (subsetSorted), so Dist(p,k,agg) is bit for bit the
// fold of the list Subset projects, on every engine.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"fannr/internal/graph"
	"fannr/internal/obs"
)

// Aggregate selects the aggregate function g.
type Aggregate int

const (
	// Max minimizes the farthest of the chosen query points.
	Max Aggregate = iota
	// Sum minimizes the total distance to the chosen query points.
	Sum
)

// String returns "max" or "sum".
func (a Aggregate) String() string {
	if a == Max {
		return "max"
	}
	return "sum"
}

// Query is an FANN_R query (G, P, Q, φ, g). The graph travels separately
// because algorithms differ in how much of it they need.
type Query struct {
	P   []graph.NodeID
	Q   []graph.NodeID
	Phi float64
	Agg Aggregate
	// Cancel, when non-nil, is polled at loop boundaries inside every
	// algorithm; once it reports true the algorithm returns ErrCanceled
	// promptly. The experiment harness uses this to enforce time budgets
	// without leaking runaway searches.
	Cancel func() bool
	// Stats, when non-nil, accumulates the query's operation counts (g_φ
	// evaluations, heap pops, pruned candidates, engine settles — see
	// Stats). Nil disables counting at the cost of a pointer test per
	// operation; the HTTP server binds one per request and flushes it
	// into the metrics registry.
	Stats *Stats
	// Scratch is the working memory the query runs on, reused so that
	// steady-state queries allocate nothing (see Scratch); nil runs it on
	// a fresh one. The answer list and its subsets live in Scratch memory
	// — copy them before running another query with the same Scratch if
	// you retain answers.
	Scratch *Scratch
	// Trace, when non-nil, receives one hierarchical span per algorithm
	// invocation (nested for delegating algorithms like APX-sum → GD),
	// annotated with the Stats deltas the span's own work produced. Nil
	// disables tracing at the cost of one pointer test per invocation —
	// the per-operation hot loops never touch it.
	Trace *obs.Trace
	// Sets, when non-nil, is the registry Validate looks both id lists up
	// in before it sorts them, and the place what depends on P alone — the
	// R-tree of an "ier" Dispatch — is kept between requests (sets.go).
	// Nil validates and builds per query. The serving tiers attach theirs.
	Sets *SetRegistry

	// What Validate last canonicalized (canon.go): the two sets by slice
	// identity with their fingerprints, and the node count they were
	// range-checked against.
	canonP, canonQ canonSet
	canonNodes     int
}

// canceled polls the optional cancel hook.
func (q *Query) canceled() bool { return q.Cancel != nil && q.Cancel() }

// ErrCanceled is returned when a query's Cancel hook reports true.
var ErrCanceled = errors.New("fannr: query canceled")

// ErrInvalid is wrapped by every error that reports a malformed query
// (empty sets, φ outside (0,1], out-of-range node ids, aggregate/algorithm
// mismatches, k < 1). Callers can classify failures with
// errors.Is(err, ErrInvalid) — e.g., the HTTP server maps ErrInvalid to
// 400 and everything unexpected to 500.
var ErrInvalid = errors.New("fannr: invalid query")

// BindContext wires the query's Cancel hook to ctx: once ctx is done
// (deadline, explicit cancel, or a disconnecting HTTP client) every
// algorithm polling this query aborts with ErrCanceled at its next loop
// boundary. The poll is a single atomic load — algorithms poll once per
// candidate, so a channel select here would be measurable. The returned
// stop function releases the context watcher and must be called when the
// query finishes (defer it).
func (q *Query) BindContext(ctx context.Context) (stop func()) {
	if ctx == nil || ctx.Done() == nil {
		q.Cancel = nil
		return func() {}
	}
	var done atomic.Bool
	if ctx.Err() != nil {
		done.Store(true)
	}
	stopWatch := context.AfterFunc(ctx, func() { done.Store(true) })
	q.Cancel = done.Load
	return func() { stopWatch() }
}

// K returns ⌈φ|Q|⌉ clamped to [1, |Q|] — the size of the flexible subset.
func (q *Query) K() int {
	k := int(math.Ceil(q.Phi * float64(len(q.Q))))
	if k < 1 {
		k = 1
	}
	if k > len(q.Q) {
		k = len(q.Q)
	}
	return k
}

// Validate checks the query against a graph and canonicalizes it:
// duplicate entries in P and Q are removed (first occurrence wins, order
// otherwise preserved). Dedup is part of the query semantics, not a
// convenience — duplicates in Q inflate k = ⌈φ|Q|⌉, and engines disagree
// on what a duplicated query point means (set-based engines like INE and
// GTree see one target where oracle engines see two distances), so the
// same request could silently return different answers depending on the
// engine. Every algorithm validates before computing k, so all of them
// see the canonical multiplicity-free sets. The caller's slices are never
// mutated; dedup replaces q.P/q.Q with fresh copies.
//
// Each set costs one sort of a copy in a reusable buffer (canon.go) —
// or, for an id list the query's registry holds, one hash and one
// comparison (sets.go). The same pass yields the set's Fingerprint, and
// the query remembers what it canonicalized, so validating it again —
// solve does, after a server or Dispatch already has — is a few
// comparisons.
func (q *Query) Validate(g *graph.Graph) error {
	if len(q.P) == 0 {
		return fmt.Errorf("%w: empty data set P", ErrInvalid)
	}
	if len(q.Q) == 0 {
		return fmt.Errorf("%w: empty query set Q", ErrInvalid)
	}
	if !(q.Phi > 0 && q.Phi <= 1) {
		return fmt.Errorf("%w: flexibility φ = %v outside (0,1]", ErrInvalid, q.Phi)
	}
	// A set Validate has canonicalized before — the same slice, against
	// the same node count — is not looked at again: solve validates a
	// query its caller already has, and APX-sum's ranking scan one whose
	// P alone was replaced.
	n := g.NumNodes()
	doP := q.canonNodes != n || !q.canonP.covers(q.P)
	doQ := q.canonNodes != n || !q.canonQ.covers(q.Q)
	if !doP && !doQ {
		return nil
	}
	buf := q.sortBuf()
	defer q.releaseSortBuf(buf)
	P, canonP, Q, canonQ := q.P, q.canonP, q.Q, q.canonQ
	if doP {
		var bad int
		if P, canonP, bad = q.canonicalizeIn(roleP, q.P, n, buf); bad >= 0 {
			return fmt.Errorf("%w: data point %d outside graph", ErrInvalid, q.P[bad])
		}
	}
	if doQ {
		var bad int
		if Q, canonQ, bad = q.canonicalizeIn(roleQ, q.Q, n, buf); bad >= 0 {
			return fmt.Errorf("%w: query point %d outside graph", ErrInvalid, q.Q[bad])
		}
	}
	q.P, q.Q, q.canonP, q.canonQ, q.canonNodes = P, Q, canonP, canonQ, n
	return nil
}

// Answer is the result triple (p*, Q*_φ, d*) of Definition 2.
type Answer struct {
	P      graph.NodeID   `json:"p"`
	Dist   float64        `json:"dist"`
	Subset []graph.NodeID `json:"subset"` // the optimal flexible subset Q*_φ
}

// ErrNoResult is returned when no data point can reach ⌈φ|Q|⌉ query
// points (e.g., P and Q in different components).
var ErrNoResult = errors.New("fannr: no data point reaches ⌈φ|Q|⌉ query points")

// Oracle answers exact network shortest-path distance queries.
// sp.AStar, phl.Index and gtree.Querier all satisfy it.
type Oracle interface {
	Dist(u, v graph.NodeID) float64
}

// GPhi computes the flexible aggregate function g_φ(p, Q): the optimal
// flexible subset is always the k = ⌈φ|Q|⌉ network-nearest members of Q,
// for both aggregates. Engines are stateful and not safe for concurrent
// use.
type GPhi interface {
	// Name identifies the engine in experiment output ("INE", "PHL", ...).
	Name() string
	// Reset binds the engine to a query point set; it must be called
	// before Dist or Subset and whenever Q changes.
	Reset(Q []graph.NodeID)
	// Dist returns the flexible aggregate distance g_φ(p, Q). ok is false
	// when fewer than k query points are reachable from p.
	Dist(p graph.NodeID, k int, agg Aggregate) (float64, bool)
	// Subset appends the optimal flexible subset Q^p_φ (the k nearest
	// query points, ascending) to dst.
	Subset(p graph.NodeID, k int, dst []graph.NodeID) []graph.NodeID
}

// aggOf folds the k-smallest prefix of dists in place: one pass over
// dists[:k], no sorting, no allocation. The prefix may be fully sorted or
// merely partially selected (partialSelect): the max does not depend on
// the order and neither does a bound, but a sum that must agree bit for
// bit with aggSorted needs the prefix ascending (oracleEngine.Dist).
func aggOf(dists []float64, k int, agg Aggregate) float64 {
	if agg == Max {
		return maxOfFirst(dists, k)
	}
	return sumOfFirst(dists, k)
}
