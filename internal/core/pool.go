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

// ErrSaturated is returned by Gate.Acquire (and so EnginePool.Run) when
// the gate is at its in-flight cap and its wait queue is full: the
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
	// QueueDepth is how many Run callers may wait for a slot once
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

// EnginePool is a named, bounded free list of GPhi engines, each with
// the Scratch its queries run on, that lets many goroutines run queries
// concurrently while preserving the package contract that a single
// engine is single-goroutine: the contract holds per checkout instead of
// per process. Run is the only checkout: it takes an idle engine and its
// Scratch, or builds both, and hands both back together (pairs beyond the
// capacity are dropped for the GC, sync.Pool-style, so a burst of traffic
// cannot pin an unbounded number of O(|V|) scratch allocations). The pool
// itself is safe for concurrent use.
type EnginePool struct {
	factory EngineFactory
	free    chan checkout
	created atomic.Int64
	reused  atomic.Int64
	gate    *Gate // admission; an unbounded pool's gate admits everyone
}

// checkout is what the free list holds: an engine and the Scratch its
// queries run on, built, reused and dropped together.
type checkout struct {
	gp  GPhi
	scr *Scratch
}

// NewBoundedEnginePool returns a pool producing engines from factory.
// capacity bounds the free list (how many idle engines are retained
// between checkouts); capacity <= 0 defaults to GOMAXPROCS, matching the
// maximum useful query parallelism on the host. No engine is built up
// front. Admission is limited: at most limits.MaxInFlight engines are
// checked out at once (unbounded when it is 0), at most
// limits.QueueDepth Run callers wait for a slot, and the rest shed
// with ErrSaturated. Because the factory only runs under an admission
// token, the pool can never hold more than MaxInFlight + capacity live
// engines no matter how hard it is hammered.
func NewBoundedEnginePool(name string, capacity int, limits PoolLimits, factory EngineFactory) *EnginePool {
	if capacity <= 0 {
		capacity = runtime.GOMAXPROCS(0)
	}
	return &EnginePool{
		factory: factory,
		free:    make(chan checkout, capacity),
		gate:    NewGate(name, limits),
	}
}

// Stats reports pool activity: engines built by the factory, checkouts
// served from the free list, and engines currently idle.
func (p *EnginePool) Stats() (created, reused int64, idle int) {
	return p.created.Load(), p.reused.Load(), len(p.free)
}

// Gauges reports the admission-control counters: checkouts currently in
// flight, Run callers currently waiting, and requests shed with
// ErrSaturated since construction.
func (p *EnginePool) Gauges() (inflight, queued, shed int64) {
	return p.gate.Gauges()
}

// ErrEnginePanic is the error Run returns for an engine that panicked:
// an engine bug, which the serving tiers answer 500 "internal".
var ErrEnginePanic = errors.New("engine panic")

// Run is the one engine-run step of every serving tier: check an engine
// and its Scratch out under admission, dispatch on them, detach the
// answer list and its subsets from the Scratch, and give both back.
// The answers are the caller's to keep.
//
// Admission: below the pool's in-flight cap Run admits at once; at the
// cap it waits in the bounded queue until a slot frees or ctx ends
// (returning ctx's error, which the tiers answer as a timeout); with the
// queue also full it sheds at once with ErrSaturated. The factory runs
// under the admission slot; if it panics, the slot is freed and the
// panic goes on to the caller.
//
// engage, when non-nil, runs once the engine is checked out and returns
// what to dispatch on — the caller's place to end its admission span,
// wrap the engine and bind its hooks. Whatever it binds on the pooled
// engine is unbound before the engine goes back.
//
// A panicking engine is discarded with its Scratch, never repooled, and
// the panic comes back as an ErrEnginePanic error carrying the panic's
// value and no stack. A memory fault (a panic value that carries the
// faulting address) is re-raised after the discard, so the
// lifecycle.Guard a caller arms around Run can tell a rotted index page
// from an engine bug.
func (p *EnginePool) Run(ctx context.Context, g *graph.Graph, algo string, q Query, k int, engage func(GPhi) GPhi) (answers []Answer, err error) {
	if err := p.gate.Acquire(ctx); err != nil {
		return nil, err
	}
	built := false
	defer func() {
		if rec := recover(); rec != nil {
			p.gate.Release()
			if _, fault := rec.(interface{ Addr() uintptr }); fault || !built {
				panic(rec)
			}
			answers, err = nil, fmt.Errorf("%w: %v", ErrEnginePanic, rec)
		}
	}()
	var c checkout
	select {
	case c = <-p.free:
		p.reused.Add(1)
	default:
		p.created.Add(1)
		c = checkout{gp: p.factory(), scr: NewScratch()}
	}
	built = true
	q.Scratch = c.scr
	eng := c.gp
	if engage != nil {
		eng = engage(c.gp)
	}
	answers, err = Dispatch(g, algo, eng, q, k)
	answers = slices.Clone(answers)
	for i, a := range answers {
		answers[i].Subset = slices.Clone(a.Subset)
	}
	BindStats(c.gp, nil)
	BindCancel(c.gp, nil)
	select {
	case p.free <- c:
	default:
	}
	p.gate.Release()
	return answers, err
}
