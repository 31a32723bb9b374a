package core

import (
	"context"
	"fmt"
	"sync/atomic"
)

// Gate is a bounded admission gate: at most MaxInFlight callers hold it
// at once, at most QueueDepth wait for a slot, and the rest are shed
// immediately with ErrSaturated. It is the admission half of EnginePool
// factored out so request paths that pool scratch state without pooling
// engines (the server's /dist Dijkstra pool) get the same "burst sheds
// instead of allocating without bound" guarantee. A gate built with
// MaxInFlight <= 0 admits everyone and only tracks the in-flight gauge.
// All methods are safe for concurrent use.
type Gate struct {
	name       string
	sem        chan struct{}
	queueDepth int
	inflight   atomic.Int64
	queued     atomic.Int64
	shed       atomic.Int64
}

// NewGate returns a gate named name (for error messages and gauges)
// enforcing limits.
func NewGate(name string, limits PoolLimits) *Gate {
	g := &Gate{name: name, queueDepth: max(limits.QueueDepth, 0)}
	if limits.MaxInFlight > 0 {
		g.sem = make(chan struct{}, limits.MaxInFlight)
	}
	return g
}

// Acquire admits the caller or reports why not. Below the in-flight cap
// it admits immediately; at the cap it waits in the bounded queue until
// a slot frees or ctx ends (returning ctx's error); with the queue also
// full it sheds immediately with ErrSaturated. Callers must pair every
// success with exactly one Release.
func (g *Gate) Acquire(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if g.sem != nil {
		select {
		case g.sem <- struct{}{}:
		default:
			// Cap reached: join the bounded wait queue or shed. The
			// counter reserves the queue slot atomically, so a burst
			// cannot overshoot the depth.
			if g.queued.Add(1) > int64(g.queueDepth) {
				g.queued.Add(-1)
				g.shed.Add(1)
				return fmt.Errorf("%w: %q at %d in-flight, %d queued",
					ErrSaturated, g.name, cap(g.sem), g.queueDepth)
			}
			select {
			case g.sem <- struct{}{}:
				g.queued.Add(-1)
			case <-ctx.Done():
				g.queued.Add(-1)
				return ctx.Err()
			}
		}
	}
	g.inflight.Add(1)
	return nil
}

// Release frees an admitted caller's slot, waking one queued Acquire if
// any.
func (g *Gate) Release() {
	g.inflight.Add(-1)
	if g.sem != nil {
		<-g.sem
	}
}

// Gauges reports callers currently admitted, callers currently waiting,
// and callers shed with ErrSaturated since construction.
func (g *Gate) Gauges() (inflight, queued, shed int64) {
	return g.inflight.Load(), g.queued.Load(), g.shed.Load()
}
