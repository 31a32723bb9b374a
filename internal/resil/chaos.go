package resil

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"time"

	"fannr/internal/core"
	"fannr/internal/graph"
)

// ErrInjected is the value carried by panics the injector raises in
// "error" mode, so recovery middleware (and assertions) can tell a
// deliberate fault from a real bug.
var ErrInjected = errors.New("resil: injected fault")

// ChaosConfig describes the faults an Injector raises while armed. All
// probabilities are per Dist call and drawn from a seeded per-engine
// stream, so a fixed arm/disarm schedule and call sequence reproduces
// the exact same faults.
type ChaosConfig struct {
	// Seed anchors the deterministic fault streams; engine i wrapped by
	// one injector draws from Seed+i.
	Seed int64
	// PanicProb is the probability a Dist call panics with a plain
	// string, modeling a corrupted engine blowing up.
	PanicProb float64
	// ErrProb is the probability a Dist call panics with ErrInjected,
	// modeling a failure path that carries an error value.
	ErrProb float64
	// Latency is added to every Dist call while armed, modeling an
	// engine gone slow rather than wrong.
	Latency time.Duration
}

// Injector builds ChaosEngine wrappers that share one arm switch. It
// starts disarmed: wrapped engines behave identically to their inner
// engine until Arm, and again after Disarm — which is how tests drive
// breaker recovery.
type Injector struct {
	cfg   ChaosConfig
	armed atomic.Bool
	wraps atomic.Int64
}

// NewInjector returns a disarmed injector raising cfg's faults.
func NewInjector(cfg ChaosConfig) *Injector {
	return &Injector{cfg: cfg}
}

// Arm starts fault injection on every engine wrapped by this injector.
func (in *Injector) Arm() { in.armed.Store(true) }

// Disarm stops fault injection; wrapped engines behave normally again.
func (in *Injector) Disarm() { in.armed.Store(false) }

// Wrap returns gp with this injector's faults layered over Dist. Each
// wrap gets its own deterministic fault stream, so a pool factory can
// call Wrap per engine without the streams aliasing. Like any GPhi, the
// wrapper is single-goroutine; the shared arm switch is atomic.
func (in *Injector) Wrap(gp core.GPhi) core.GPhi {
	n := in.wraps.Add(1) - 1
	below, _ := gp.(core.DistBelower)
	return &ChaosEngine{
		inner: gp,
		below: below,
		in:    in,
		rng:   rand.New(rand.NewSource(in.cfg.Seed + n)),
	}
}

// ChaosEngine wraps a GPhi engine and injects panics, error-carrying
// panics, and latency into Dist and DistBelow while its Injector is
// armed. Name, Reset, Subset and BindStats pass through untouched, so
// pools and algorithms see an ordinary engine.
type ChaosEngine struct {
	inner core.GPhi
	below core.DistBelower // inner's, when it can end an evaluation early
	in    *Injector
	rng   *rand.Rand
	done  <-chan struct{}
}

// BindCancel attaches the request's cancellation channel so injected
// latency cannot outlive the request: a sleep in progress wakes on
// cancel instead of blocking past the per-request deadline. The binding
// also forwards to the inner engine in case it blocks too.
func (c *ChaosEngine) BindCancel(done <-chan struct{}) {
	c.done = done
	core.BindCancel(c.inner, done)
}

// BindStats binds (or, with nil, unbinds) the inner engine's counts.
func (c *ChaosEngine) BindStats(s *core.Stats) { core.BindStats(c.inner, s) }

// Name reports the inner engine's name: the wrapper is an invisible
// fault layer, not a different engine.
func (c *ChaosEngine) Name() string { return c.inner.Name() }

// Reset passes through to the inner engine.
func (c *ChaosEngine) Reset(Q []graph.NodeID) { c.inner.Reset(Q) }

// Dist injects the configured faults (when armed), then delegates.
func (c *ChaosEngine) Dist(p graph.NodeID, k int, agg core.Aggregate) (float64, bool) {
	return c.DistBelow(p, k, agg, math.Inf(1))
}

// DistBelow is Dist with the search loop's threshold forwarded after the
// faults, so an engine under chaos evaluates the way a served one does.
func (c *ChaosEngine) DistBelow(p graph.NodeID, k int, agg core.Aggregate, tau float64) (float64, bool) {
	if c.in.armed.Load() {
		cfg := c.in.cfg
		if cfg.Latency > 0 {
			if c.done == nil {
				time.Sleep(cfg.Latency)
			} else {
				// Sleep, but wake on request cancellation: the algorithm
				// will see q.Cancel at its next poll and abort, instead of
				// the injected latency pinning the engine past the deadline.
				t := time.NewTimer(cfg.Latency)
				select {
				case <-t.C:
				case <-c.done:
					t.Stop()
				}
			}
		}
		if cfg.PanicProb > 0 && c.rng.Float64() < cfg.PanicProb {
			panic(fmt.Sprintf("resil: injected panic in %s.Dist(%d)", c.inner.Name(), p))
		}
		if cfg.ErrProb > 0 && c.rng.Float64() < cfg.ErrProb {
			panic(fmt.Errorf("%w: %s.Dist(%d)", ErrInjected, c.inner.Name(), p))
		}
	}
	if c.below != nil {
		return c.below.DistBelow(p, k, agg, tau)
	}
	return c.inner.Dist(p, k, agg)
}

// Subset passes through to the inner engine.
func (c *ChaosEngine) Subset(p graph.NodeID, k int, dst []graph.NodeID) []graph.NodeID {
	return c.inner.Subset(p, k, dst)
}
