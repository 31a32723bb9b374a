package core

import (
	"fmt"
	"math"

	"fannr/internal/graph"
	"fannr/internal/pqueue"
	"fannr/internal/rtree"
	"fannr/internal/sp"
)

// This file is the skeleton every FANN_R algorithm shares. The paper
// states each algorithm as a search that keeps one incumbent, and §V
// turns it into k-FANN_R (Definition 3) by replacing the incumbent with a
// bounded queue and comparing the termination bound against its k-th
// entry. The code says the same thing once: solve validates, opens the
// span, runs the algorithm's search loop over a topK and materialises the
// answers; a search loop (gd.go, rlist.go, ierknn.go, exactmax.go) only
// offers candidates and reads kth. The ten exported entry points are
// wrappers that pick a loop and an answer count.

// algo names a search loop.
type algo uint8

const (
	algoGD algo = iota
	algoRList
	algoIERKNN
	algoExactMax
	algoAPXSum
)

// algoSpans holds the span each algorithm opens: [0] from its
// single-answer entry point, [1] from its K* entry point.
var algoSpans = [...][2]string{
	algoGD:       {"algo:gd", "algo:kgd"},
	algoRList:    {"algo:rlist", "algo:krlist"},
	algoIERKNN:   {"algo:ierknn", "algo:kierknn"},
	algoExactMax: {"algo:exactmax", "algo:kexactmax"},
	algoAPXSum:   {"algo:apxsum", "algo:kapxsum"},
}

// topK is the bounded incumbent queue: the k best (point, distance) pairs
// offered so far. With k = 1 it is the paper's scalar incumbent — no
// heap, no allocation — which is the path every single-answer query runs.
type topK struct {
	k    int
	best sp.Neighbor                   // k == 1: the incumbent, Node < 0 while empty
	h    *pqueue.MaxHeap[graph.NodeID] // k > 1: worst incumbent on top
}

// newTopK returns an empty queue of capacity k, reusing the Scratch-held
// heap when the query carries one.
func (q *Query) newTopK(k int) topK {
	t := topK{k: k, best: sp.Neighbor{Node: -1, Dist: math.Inf(1)}}
	switch {
	case k == 1:
	case q.Scratch == nil:
		t.h = pqueue.NewMaxHeap[graph.NodeID](k)
	default:
		if q.Scratch.top == nil {
			q.Scratch.top = pqueue.NewMaxHeap[graph.NodeID](k)
		}
		t.h = q.Scratch.top
		t.h.Reset()
	}
	return t
}

// offer admits p when it beats the current k-th best.
func (t *topK) offer(p graph.NodeID, d float64) {
	switch {
	case t.h == nil:
		if d < t.best.Dist {
			t.best = sp.Neighbor{Node: p, Dist: d}
		}
	case t.h.Len() < t.k:
		t.h.Push(d, p)
	case d < t.h.Max().Key:
		t.h.Pop()
		t.h.Push(d, p)
	}
}

// kth returns the current k-th best distance (+Inf until k candidates
// are held) — the value every termination bound is compared against.
func (t *topK) kth() float64 {
	switch {
	case t.h == nil:
		return t.best.Dist
	case t.h.Len() < t.k:
		return math.Inf(1)
	}
	return t.h.Max().Key
}

// len reports how many incumbents are held.
func (t *topK) len() int {
	switch {
	case t.h != nil:
		return t.h.Len()
	case t.best.Node < 0:
		return 0
	}
	return 1
}

// pop removes and returns the worst incumbent.
func (t *topK) pop() sp.Neighbor {
	if t.h == nil {
		nb := t.best
		t.best.Node = -1
		return nb
	}
	it := t.h.Pop()
	return sp.Neighbor{Node: it.Value, Dist: it.Key}
}

// solver is the state a search loop works on: the validated query, its
// engine (already bound to Q), the flexible subset size and the
// incumbent queue.
type solver struct {
	g     *graph.Graph
	gp    GPhi
	below DistBelower // gp's, when it can end an evaluation early
	q     Query
	k     int // ⌈φ|Q|⌉
	top   topK
}

// eval is how every search loop evaluates a candidate: g_φ(p, Q) is
// computed and offered to the incumbent queue. An engine that can is
// told the k-th incumbent distance and may stop as soon as p cannot come
// in under it — offer's strict < would have dropped exactly those
// values, so the answers are the ones a full evaluation gives, and the
// evaluation is counted either way.
func (s *solver) eval(p graph.NodeID) {
	s.q.Stats.CountEval()
	var (
		d  float64
		ok bool
	)
	if s.below != nil {
		d, ok = s.below.DistBelow(p, s.k, s.q.Agg, s.top.kth())
	} else {
		d, ok = s.gp.Dist(p, s.k, s.q.Agg)
	}
	if ok {
		s.top.offer(p, d)
	}
}

// solve runs algorithm a and returns the kAns best answers in ascending
// order of distance, in dst's storage when it has room. one selects the single-answer form: kAns
// is 1, the span carries the unprefixed name, and the subset is built in
// the query's Scratch (see the aliasing contract on Scratch); the K* form
// checks kAns, stamps top_k on its span and returns detached subsets.
func solve(g *graph.Graph, gp GPhi, q Query, a algo, kAns int, one bool, rtP *rtree.Tree, dst []Answer) ([]Answer, error) {
	span := algoSpans[a][1]
	if one {
		span, kAns = algoSpans[a][0], 1
	} else if kAns < 1 {
		return nil, fmt.Errorf("%w: k-FANN_R needs k >= 1, got %d", ErrInvalid, kAns)
	}
	// Validate canonicalizes q.P/q.Q (dedup) in this function's copy of
	// the query, the one every later step reads: k = ⌈φ|Q|⌉ must be taken
	// over the duplicate-free Q or the algorithms disagree with Brute. A
	// query its caller already validated passes straight through.
	if err := q.Validate(g); err != nil {
		return nil, err
	}
	if err := a.checkAgg(q.Agg); err != nil {
		return nil, err
	}
	ts := q.startSpan(span)
	defer ts.end()
	if !one {
		ts.attr("top_k", kAns)
	}
	if a == algoAPXSum {
		candidates, err := apxCandidates(g, &q, min(kAns, 2))
		if err != nil {
			return nil, err
		}
		ts.attr("candidates", len(candidates))
		// The ranking scan is the same query over the reduced P, so it
		// inherits Cancel, Stats, Scratch and Trace: its evals land on the
		// request's counters and on a nested span.
		// The candidates are this request's own list, not one anybody
		// sends: they stay out of the set registry.
		q.P, q.Sets = candidates, nil
		return solve(g, gp, q, algoGD, kAns, one, nil, dst)
	}
	s := solver{g: g, gp: gp, q: q, k: q.K(), top: q.newTopK(kAns)}
	s.below, _ = gp.(DistBelower)
	q.resetEngine(gp)
	var err error
	switch a {
	case algoGD:
		err = s.scanAll()
	case algoRList:
		err = s.rlist()
	case algoIERKNN:
		err = s.ierknn(rtP)
	case algoExactMax:
		err = s.exactMax()
	}
	if err != nil {
		return nil, err
	}
	n := s.top.len()
	if n == 0 {
		return nil, ErrNoResult
	}
	out := dst[:min(n, cap(dst))]
	if len(out) < n {
		out = make([]Answer, n)
	}
	for i := n - 1; i >= 0; i-- {
		nb := s.top.pop()
		out[i] = Answer{P: nb.Node, Dist: nb.Dist}
	}
	for i := range out {
		q.Stats.CountSubset()
		if one {
			out[i].Subset = q.keepSubset(gp.Subset(out[i].P, s.k, q.subsetBuf()))
		} else {
			out[i].Subset = gp.Subset(out[i].P, s.k, make([]graph.NodeID, 0, s.k))
		}
	}
	return out, nil
}

// solveOne is solve in its single-answer form. The answer list lives in
// this frame, so the path every k = 1 query takes allocates nothing.
func solveOne(g *graph.Graph, gp GPhi, q Query, a algo, rtP *rtree.Tree) (Answer, error) {
	var one [1]Answer
	out, err := solve(g, gp, q, a, 1, true, rtP, one[:0])
	if err != nil {
		return Answer{}, err
	}
	return out[0], nil
}
