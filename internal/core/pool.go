package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"

	"fannr/internal/graph"
)

// ErrSaturated is returned by Gate.Acquire (and so EnginePool.Acquire)
// when the gate is at its in-flight cap and its wait queue is full: the
// request is shed rather than queued. The HTTP server maps it to 503
// "overloaded" with a Retry-After hint.
var ErrSaturated = errors.New("fannr: engine pool saturated")

// PoolLimits bounds admission into an EnginePool. The cap turns a
// traffic burst from "build an unbounded number of O(|V|) engines and
// OOM" into "queue a little, then shed with a clear signal".
type PoolLimits struct {
	// MaxInFlight is the hard cap on engines checked out at once;
	// <= 0 means unbounded (the pre-admission behavior).
	MaxInFlight int
	// QueueDepth is how many Acquire callers may wait for a slot once
	// the cap is reached; beyond it callers are shed immediately with
	// ErrSaturated. Negative is treated as 0 (shed as soon as the cap
	// is hit).
	QueueDepth int
}

// EngineFactory builds a fresh GPhi engine over shared immutable indexes
// (graph, hub labels, G-tree — all safe for concurrent readers).
// Factories must be callable from any goroutine; everything the returned
// engine mutates must belong to that engine alone.
type EngineFactory func() GPhi

// EnginePool is a named, bounded free-list of GPhi engines that lets many
// goroutines run queries concurrently while preserving the package
// contract that a single engine is single-goroutine: the contract holds
// per checkout instead of per process.
//
// Get returns a free engine or builds one through the factory when the
// list is empty; Put returns it for reuse (engines beyond the capacity
// are dropped for the GC, sync.Pool-style, so a burst of traffic cannot
// pin an unbounded number of O(|V|) scratch allocations). The pool itself
// is safe for concurrent use.
//
// Acquire/Release/Discard enforce the pool's in-flight cap with a
// bounded wait queue; Get/Put bypass admission and remain for callers
// outside the serving path (tests).
type EnginePool struct {
	name      string
	factory   EngineFactory
	free      chan GPhi
	scratches chan *Scratch
	created   atomic.Int64
	reused    atomic.Int64

	// gate enforces admission for Acquire/Release/Discard; an unbounded
	// pool's gate admits everyone (the legacy shape).
	gate *Gate
}

// NewBoundedEnginePool returns a pool producing engines from factory.
// capacity bounds the free-list (how many idle engines are retained
// between checkouts); capacity <= 0 defaults to GOMAXPROCS, matching the
// maximum useful query parallelism on the host. No engine is built up
// front. Admission is limited: at most limits.MaxInFlight engines are
// checked out at once (unbounded when it is 0), at most
// limits.QueueDepth Acquire callers wait for a slot, and the rest shed
// with ErrSaturated. Because the factory only runs under an admission
// token, the pool can never hold more than MaxInFlight + capacity live
// engines no matter how hard it is hammered.
func NewBoundedEnginePool(name string, capacity int, limits PoolLimits, factory EngineFactory) *EnginePool {
	if capacity <= 0 {
		capacity = runtime.GOMAXPROCS(0)
	}
	return &EnginePool{
		name:      name,
		factory:   factory,
		free:      make(chan GPhi, capacity),
		scratches: make(chan *Scratch, capacity),
		gate:      NewGate(name, limits),
	}
}

// Name identifies the pool's engine ("INE", "PHL", ...).
func (p *EnginePool) Name() string { return p.name }

// Capacity returns the free-list bound.
func (p *EnginePool) Capacity() int { return cap(p.free) }

// Get checks an engine out of the pool. The caller owns it exclusively
// until Put; it must not be shared across goroutines or retained after
// Put returns it.
func (p *EnginePool) Get() GPhi {
	select {
	case gp := <-p.free:
		p.reused.Add(1)
		return gp
	default:
		p.created.Add(1)
		return p.factory()
	}
}

// Put returns an engine to the free list; when the list is full the
// engine is dropped and reclaimed by the GC. Put(nil) is a no-op.
func (p *EnginePool) Put(gp GPhi) {
	if gp == nil {
		return
	}
	select {
	case p.free <- gp:
	default:
	}
}

// GetScratch checks out reusable per-query working memory, warm from
// earlier queries on this pool when available. It rides alongside an
// engine checkout — pair the two and hand the Scratch to Query.Scratch —
// and follows the same exclusivity contract: one goroutine until
// PutScratch.
func (p *EnginePool) GetScratch() *Scratch {
	select {
	case s := <-p.scratches:
		return s
	default:
		return NewScratch()
	}
}

// PutScratch returns a Scratch to the pool's free list; beyond capacity
// it is dropped for the GC. Answers produced under this Scratch may alias
// its buffers (see Scratch) — copy any retained Answer.Subset before
// calling PutScratch. PutScratch(nil) is a no-op.
func (p *EnginePool) PutScratch(s *Scratch) {
	if s == nil {
		return
	}
	select {
	case p.scratches <- s:
	default:
	}
}

// Limits reports the admission bounds (zero MaxInFlight = unbounded).
func (p *EnginePool) Limits() PoolLimits {
	return p.gate.Limits()
}

// Acquire checks an engine out under admission control. When the pool is
// below its in-flight cap it admits immediately; at the cap it waits in
// the bounded queue until a slot frees or ctx ends (returning ctx's
// error, which the server classifies as a timeout); with the queue also
// full it sheds immediately with ErrSaturated. Callers must pair every
// success with exactly one Release or Discard. An unbounded pool only
// checks ctx and delegates to Get.
func (p *EnginePool) Acquire(ctx context.Context) (GPhi, error) {
	if err := p.gate.Acquire(ctx); err != nil {
		return nil, err
	}
	// The factory runs under the admission token. If it panics, the
	// token must be released before unwinding: the caller pairs its
	// Release/Discard defer with a *returned* engine, so a leak here
	// would permanently shrink MaxInFlight on every occurrence until
	// the pool deadlocks.
	defer func() {
		if r := recover(); r != nil {
			p.gate.Release()
			panic(r)
		}
	}()
	return p.Get(), nil
}

// Release returns an engine acquired with Acquire: it goes back to the
// free list (or is dropped beyond capacity) and the admission slot is
// freed, waking one queued Acquire if any.
func (p *EnginePool) Release(gp GPhi) {
	p.Put(gp)
	p.gate.Release()
}

// Discard frees the admission slot of an acquired engine without
// repooling it — the drop-on-panic path, where the engine's internal
// state is suspect and must go to the GC.
func (p *EnginePool) Discard() {
	p.gate.Release()
}

// Stats reports pool activity: engines built by the factory, checkouts
// served from the free list, and engines currently idle.
func (p *EnginePool) Stats() (created, reused int64, idle int) {
	return p.created.Load(), p.reused.Load(), len(p.free)
}

// Gauges reports the admission-control counters: checkouts currently in
// flight, Acquire callers currently waiting, and requests shed with
// ErrSaturated since construction.
func (p *EnginePool) Gauges() (inflight, queued, shed int64) {
	return p.gate.Gauges()
}

// ErrEnginePanic is the error Run returns for an engine that panicked:
// an engine bug, which the serving tiers answer 500 "internal".
var ErrEnginePanic = errors.New("engine panic")

// Run is the one engine-run step of every serving tier: check an engine
// out under admission, hand the query a pooled Scratch, dispatch, detach
// the answer list and its subsets from the Scratch, and give engine and
// Scratch back.
// The answers are the caller's to keep.
//
// engage, when non-nil, runs once the engine is checked out and returns
// what to dispatch on — the caller's place to end its admission span,
// wrap the engine and bind its hooks. Whatever it binds on the pooled
// engine is unbound before the engine goes back.
//
// A panicking engine is discarded, never repooled, and the panic comes
// back as an ErrEnginePanic error carrying the panic's value and no
// stack. A memory fault (a panic value that carries the faulting address)
// is re-raised after the discard, so the lifecycle.Guard a caller arms
// around Run can tell a rotted index page from an engine bug.
func (p *EnginePool) Run(ctx context.Context, g *graph.Graph, algo string, q Query, k int, engage func(GPhi) GPhi) (answers []Answer, err error) {
	gp, err := p.Acquire(ctx)
	if err != nil {
		return nil, err
	}
	defer func() {
		if rec := recover(); rec != nil {
			p.Discard()
			if _, fault := rec.(interface{ Addr() uintptr }); fault {
				panic(rec)
			}
			answers, err = nil, fmt.Errorf("%w: %v", ErrEnginePanic, rec)
		}
	}()
	scr := p.GetScratch()
	q.Scratch = scr
	eng := gp
	if engage != nil {
		eng = engage(gp)
	}
	answers, err = Dispatch(g, algo, eng, q, k)
	answers = slices.Clone(answers)
	for i, a := range answers {
		answers[i].Subset = slices.Clone(a.Subset)
	}
	BindStats(gp, nil)
	BindCancel(gp, nil)
	p.Release(gp)
	p.PutScratch(scr)
	return answers, err
}
