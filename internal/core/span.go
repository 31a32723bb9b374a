package core

import "fannr/internal/obs"

// traceSpan pairs an open obs span with a snapshot of the query's Stats
// at span start, so end() can attribute the counter deltas the span
// produced. Deltas are reduced by whatever child spans already claimed
// (APX-sum delegating to GD opens a nested span), keeping per-span
// counts disjoint: summed over the whole tree they equal the request's
// counter totals.
//
// The zero value (tracing disabled) is inert; startSpan returns it
// without allocating, preserving the zero-alloc warm path — guarded by
// TestTraceDisabledZeroAlloc and BenchmarkGDTrace.
type traceSpan struct {
	sp     *obs.Span
	st     *Stats
	before Stats
}

// startSpan opens an algorithm span on the query's trace (inert when
// tracing is disabled).
func (q *Query) startSpan(name string) traceSpan {
	if q.Trace == nil {
		return traceSpan{}
	}
	ts := traceSpan{sp: q.Trace.StartSpan(name), st: q.Stats}
	if ts.st != nil {
		ts.before = *ts.st
	}
	ts.sp.SetAttr("agg", q.Agg.String())
	ts.sp.SetAttr("k", q.K())
	return ts
}

// attr annotates the span (no-op when tracing is disabled).
func (ts *traceSpan) attr(key string, v any) { ts.sp.SetAttr(key, v) }

// end closes the span, stamping the op-count deltas since startSpan
// minus what nested child spans already claimed. Call via defer right
// after startSpan so error returns (canceled, no result) are traced
// too, and before any deferred Stats writes the algorithm registers
// (deferred settle flushes run first under LIFO, so the deltas include
// them).
func (ts *traceSpan) end() {
	if ts.sp == nil {
		return
	}
	if ts.st != nil {
		d := *ts.st
		ts.count("gphi_evals", d.GPhiEvals-ts.before.GPhiEvals)
		// How many of those evaluations the engine's bounds ended early.
		// An attribute, not a count: it is a part of gphi_evals, and it
		// goes on the span whose own loop ran them (APX-sum's has none;
		// the GD span nested in it does).
		if n := d.GPhiAbandoned - ts.before.GPhiAbandoned; n > 0 && ts.sp.CountValue("gphi_evals") > 0 {
			ts.sp.SetAttr("abandoned", n)
		}
		ts.count("gphi_subsets", d.GPhiSubsets-ts.before.GPhiSubsets)
		ts.count("heap_pops", d.HeapPops-ts.before.HeapPops)
		ts.count("index_visits", d.IndexVisits-ts.before.IndexVisits)
		ts.count("pruned", d.Pruned-ts.before.Pruned)
		ts.count("settled", d.Settled-ts.before.Settled)
		ts.count("cache_hits", d.CacheHits-ts.before.CacheHits)
		ts.count("cache_misses", d.CacheMisses-ts.before.CacheMisses)
	}
	ts.sp.End()
}

func (ts *traceSpan) count(name string, delta int64) {
	ts.sp.Count(name, delta-ts.sp.ChildrenCount(name))
}
