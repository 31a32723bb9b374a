// Package resil provides the overload-resilience primitives the HTTP
// server composes on top of the engine pools: a consecutive-failure
// circuit breaker driving a fallback ladder, and a deterministic fault
// injector (ChaosEngine) used to prove the whole degradation path —
// saturation, breaker-open, fallback, recovery — in tests.
package resil

import (
	"sync"
	"time"
)

// State is a breaker's position in the closed → open → half-open cycle.
// Its value is the breaker-state gauge operators alert on: 0 closed
// (healthy), 1 half-open (probing), 2 open (tripped).
type State int32

const (
	// Closed is the healthy state: calls flow, failures are counted.
	Closed State = iota
	// HalfOpen lets exactly one probe through; its outcome decides
	// between Closed and another full cooldown.
	HalfOpen
	// Open rejects all calls until the cooldown elapses.
	Open
)

// String returns "closed", "open" or "half-open".
func (s State) String() string {
	switch s {
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// Breaker is a consecutive-failure circuit breaker. It trips after
// threshold failures in a row, rejects everything for cooldown, then
// admits a single probe: a successful probe closes it, a failed one buys
// another cooldown. A threshold <= 0 disables the breaker entirely
// (always closed). The zero value is a disabled breaker; all methods are
// safe for concurrent use.
type Breaker struct {
	threshold int
	cooldown  time.Duration
	// now is the clock, swappable in tests for a deterministic cycle.
	now func() time.Time

	mu       sync.Mutex
	state    State
	fails    int
	openedAt time.Time
	onTrans  func(from, to State)
}

// OnTransition registers fn to run after every state change, outside the
// breaker's lock (so fn may call State or publish metrics without
// deadlocking). Because delivery happens after the lock is released,
// concurrent transitions (a Failure trip racing a Success reset) may
// invoke fn out of order or with from/to pairs that no longer match the
// live state — callbacks must be order-insensitive (e.g. counting trips,
// re-reading State), not reconstructions of the state machine. At most
// one callback is held; registering replaces the previous one. Not safe
// to call concurrently with breaker traffic — wire it up before the
// breaker sees calls.
func (b *Breaker) OnTransition(fn func(from, to State)) {
	if b != nil {
		b.onTrans = fn
	}
}

// DefaultCooldown is how long an open breaker rejects when its owner
// names no cooldown: every tier's breakers, and both serving binaries'
// -breaker-cooldown default.
const DefaultCooldown = 5 * time.Second

// NewBreaker returns a breaker tripping after threshold consecutive
// failures and probing again after cooldown. threshold <= 0 disables it;
// cooldown <= 0 means DefaultCooldown.
func NewBreaker(threshold int, cooldown time.Duration) *Breaker {
	if cooldown <= 0 {
		cooldown = DefaultCooldown
	}
	return &Breaker{threshold: threshold, cooldown: cooldown, now: time.Now}
}

// Enabled reports whether the breaker counts failures at all.
func (b *Breaker) Enabled() bool { return b != nil && b.threshold > 0 }

// Allow reports whether a call may proceed — Admit without the probe
// flag, for callers that report every outcome unconditionally.
func (b *Breaker) Allow() bool {
	ok, _ := b.Admit()
	return ok
}

// Admit reports whether a call may proceed and whether that caller was
// admitted as the half-open recovery probe. In Open state it flips to
// HalfOpen once the cooldown has elapsed, admitting that caller as the
// single probe; further callers are rejected until the probe reports.
//
// A probe caller MUST eventually call Success or Failure: until one of
// them runs the breaker stays HalfOpen and admits nobody, so a probe
// that vanishes without a verdict (shed, canceled, timed out) wedges
// the circuit permanently. Callers with outcome paths that record
// nothing must treat an unreported probe as a Failure — a probe that
// could not finish is not evidence of recovery.
func (b *Breaker) Admit() (ok, probe bool) {
	if !b.Enabled() {
		return true, false
	}
	b.mu.Lock()
	switch b.state {
	case Open:
		if b.now().Sub(b.openedAt) >= b.cooldown {
			b.state = HalfOpen
			b.mu.Unlock()
			b.notify(Open, HalfOpen)
			return true, true
		}
		b.mu.Unlock()
		return false, false
	case HalfOpen:
		b.mu.Unlock()
		return false, false
	default:
		b.mu.Unlock()
		return true, false
	}
}

// Success records a successful call: the failure streak resets and a
// half-open probe closes the breaker.
func (b *Breaker) Success() {
	if !b.Enabled() {
		return
	}
	b.mu.Lock()
	from := b.state
	b.fails = 0
	b.state = Closed
	b.mu.Unlock()
	if from != Closed {
		b.notify(from, Closed)
	}
}

// Failure records a failed call: a half-open probe reopens immediately,
// and in the closed state the threshold-th consecutive failure opens the
// breaker.
func (b *Breaker) Failure() {
	if !b.Enabled() {
		return
	}
	b.mu.Lock()
	from := b.state
	tripped := false
	if b.state == HalfOpen {
		b.trip()
		tripped = true
	} else {
		b.fails++
		if b.state == Closed && b.fails >= b.threshold {
			b.trip()
			tripped = true
		}
	}
	b.mu.Unlock()
	if tripped {
		b.notify(from, Open)
	}
}

// trip opens the breaker; callers hold b.mu.
func (b *Breaker) trip() {
	b.state = Open
	b.openedAt = b.now()
	b.fails = 0
}

// notify runs the transition callback, if any, outside b.mu.
func (b *Breaker) notify(from, to State) {
	if b.onTrans != nil {
		b.onTrans(from, to)
	}
}

// State returns the current state without advancing it (an elapsed
// cooldown still reports Open until some caller's Allow flips it).
func (b *Breaker) State() State {
	if !b.Enabled() {
		return Closed
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}
