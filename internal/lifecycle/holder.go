// Package lifecycle manages live index generations: epoch/refcounted
// atomic swap of loaded indexes (Holder), and containment of memory
// faults on mmap'd index ranges (Ranges/Guard), so a rebuilt index can
// replace a serving one without dropping a request and a rotted disk
// page costs one request instead of the process.
//
// The ownership rules are strict because munmap-under-read is silent
// heap corruption, not a crash: a snapshot's resource is closed only
// when its reference count drains to zero. The holder owns one
// reference to the current generation; every in-flight request that
// Acquires a Pin owns another. Swap and quarantine merely detach the
// holder's reference — the munmap happens on the last Release, wherever
// that lands.
package lifecycle

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"fannr/internal/resil"
)

// ErrUnavailable is returned by Acquire while a holder has no live
// snapshot: its index is quarantined after a fault, or its initial load
// never succeeded. Callers should degrade to their fallback ladder.
var ErrUnavailable = errors.New("lifecycle: index unavailable")

// Resource is one loaded index generation plus whatever rides with it
// (engine pools, fault-range registrations). Close releases the backing
// mapping; the holder guarantees it runs exactly once, after the last
// pin drops.
type Resource interface {
	Close() error
}

// snapshot is one generation: a resource plus the reference count that
// gates its Close. refs counts the holder's own reference (while
// attached) plus one per outstanding Pin.
type snapshot struct {
	val  Resource
	gen  uint64
	refs atomic.Int64
}

// release drops one reference and closes the resource when the count
// drains to zero.
func (s *snapshot) release() {
	if s.refs.Add(-1) == 0 {
		s.val.Close()
	}
}

// Pin is a request's lease on one index generation. The resource stays
// valid — mapping and all — until Release, no matter how many swaps or
// quarantines happen meanwhile. Release is idempotent.
type Pin struct {
	s        *snapshot
	released atomic.Bool
}

// Value returns the pinned resource.
func (p *Pin) Value() Resource { return p.s.val }

// Generation returns the pinned generation number (1 for the initial
// load, incremented per successful reload).
func (p *Pin) Generation() uint64 { return p.s.gen }

// Release drops the lease. The last release of a detached generation
// closes it.
func (p *Pin) Release() {
	if p.released.CompareAndSwap(false, true) {
		p.s.release()
	}
}

// State is a holder's observable lifecycle state, for /meta, /readyz
// and metrics.
type State struct {
	// Generation of the live snapshot (0 when none has ever loaded, and
	// for a Fixed holder's one generation).
	Generation uint64
	// Live reports whether Acquire would currently succeed.
	Live bool
	// Quarantined reports whether the index was evicted after a fault
	// and has not been replaced by a successful reload.
	Quarantined bool
	// Reason is the operator-facing cause of the quarantine ("" when not
	// quarantined).
	Reason string
	// Reloads counts successful swaps (the initial load is not a
	// reload); ReloadFailures counts Reload calls that exhausted their
	// retries without swapping.
	Reloads        uint64
	ReloadFailures uint64
	// Faults counts Quarantine calls that evicted a live snapshot.
	Faults uint64
}

// Holder owns the live generation of one index and serializes its
// lifecycle transitions: initial load, reload-and-swap, quarantine.
// Loads run outside the lock (they can take seconds), so queries keep
// acquiring the old generation while a new one loads.
type Holder struct {
	name  string
	load  func() (Resource, error)
	retry resil.RetryPolicy

	mu          sync.Mutex
	cur         *snapshot // nil when never loaded or quarantined
	gen         uint64
	quarantined bool
	reason      string
	reloading   bool

	reloads     atomic.Uint64
	reloadFails atomic.Uint64
	faults      atomic.Uint64
}

// Options configures a Holder.
type Options struct {
	// Retry governs load attempts (initial and reload). The zero value
	// tries once with no backoff.
	Retry resil.RetryPolicy
}

// New creates a holder and performs the initial load (with opts.Retry).
// A failed initial load returns the error; the caller decides whether
// that is fatal (server startup) or degradable.
func New(name string, load func() (Resource, error), opts Options) (*Holder, error) {
	h := &Holder{name: name, load: load, retry: opts.Retry}
	res, err := h.loadWithRetry(context.Background())
	if err != nil {
		return nil, fmt.Errorf("lifecycle: initial load of %s: %w", name, err)
	}
	h.install(res)
	return h, nil
}

// Fixed returns a holder whose one generation is res, loaded by the
// caller: it is generation 0 and it is never reloaded — Reload fails.
// Pins, Quarantine and Close work as on any holder.
func Fixed(name string, res Resource) *Holder {
	h := &Holder{name: name}
	h.cur = &snapshot{val: res}
	h.cur.refs.Store(1)
	return h
}

func (h *Holder) loadWithRetry(ctx context.Context) (Resource, error) {
	var res Resource
	err := h.retry.Do(ctx, func() error {
		r, err := h.load()
		if err != nil {
			return err
		}
		res = r
		return nil
	})
	return res, err
}

// install swaps res in as the new live generation, detaching (and
// eventually closing) the old one. The new snapshot starts with one
// reference — the holder's own.
func (h *Holder) install(res Resource) {
	h.mu.Lock()
	old := h.cur
	h.gen++
	s := &snapshot{val: res, gen: h.gen}
	s.refs.Store(1)
	h.cur = s
	h.quarantined = false
	h.reason = ""
	h.mu.Unlock()
	if old != nil {
		old.release()
	}
}

// Acquire pins the current generation for one request. It fails with
// ErrUnavailable while the index is quarantined (or its initial load
// never happened) — callers degrade to the fallback ladder rather than
// block on a reload. It is small enough to inline, so a caller that keeps
// its pin to itself holds it on the stack.
func (h *Holder) Acquire() (*Pin, error) {
	s, err := h.acquire()
	if err != nil {
		return nil, err
	}
	return &Pin{s: s}, nil
}

// acquire takes a reference on the live snapshot.
func (h *Holder) acquire() (*snapshot, error) {
	h.mu.Lock()
	s := h.cur
	if s == nil {
		reason := h.reason
		h.mu.Unlock()
		if reason != "" {
			return nil, fmt.Errorf("%w: %s quarantined: %s", ErrUnavailable, h.name, reason)
		}
		return nil, fmt.Errorf("%w: %s", ErrUnavailable, h.name)
	}
	s.refs.Add(1)
	h.mu.Unlock()
	return s, nil
}

// Reload loads a fresh resource (outside the lock, with retry+backoff)
// and swaps it in. In-flight pins on the old generation stay valid; the
// old mapping is released when the last of them drops. On failure the
// current generation — including a quarantine — is left untouched, so a
// half-written file never replaces a good index. Concurrent Reloads
// coalesce: the loser returns immediately with nil.
func (h *Holder) Reload(ctx context.Context) error {
	if h.load == nil {
		return fmt.Errorf("lifecycle: %s is fixed: it has nothing to reload", h.name)
	}
	h.mu.Lock()
	if h.reloading {
		h.mu.Unlock()
		return nil
	}
	h.reloading = true
	h.mu.Unlock()
	defer func() {
		h.mu.Lock()
		h.reloading = false
		h.mu.Unlock()
	}()

	res, err := h.loadWithRetry(ctx)
	if err != nil {
		h.reloadFails.Add(1)
		return fmt.Errorf("lifecycle: reload of %s: %w", h.name, err)
	}
	h.install(res)
	h.reloads.Add(1)
	return nil
}

// Quarantine evicts the live generation after a fault: Acquire fails
// until a subsequent Reload succeeds, and the faulted mapping is
// released once its last in-flight pin drops (never in place — a racing
// reader of a munmap'd page would corrupt silently, not crash). It
// reports whether a live generation was actually evicted; repeat faults
// on an already-quarantined index are no-ops.
func (h *Holder) Quarantine(reason string) bool {
	h.mu.Lock()
	s := h.cur
	if s == nil {
		// Keep the first reason; a repeat fault adds nothing.
		if !h.quarantined {
			h.quarantined = true
			h.reason = reason
		}
		h.mu.Unlock()
		return false
	}
	h.cur = nil
	h.quarantined = true
	h.reason = reason
	h.mu.Unlock()
	h.faults.Add(1)
	s.release()
	return true
}

// Close detaches and releases the holder's reference to the live
// generation. Outstanding pins stay valid; the resource closes when the
// last one drops.
func (h *Holder) Close() {
	h.mu.Lock()
	s := h.cur
	h.cur = nil
	h.mu.Unlock()
	if s != nil {
		s.release()
	}
}

// State snapshots the holder's lifecycle state.
func (h *Holder) State() State {
	h.mu.Lock()
	st := State{
		Generation:  h.gen,
		Live:        h.cur != nil,
		Quarantined: h.quarantined,
		Reason:      h.reason,
	}
	h.mu.Unlock()
	st.Reloads = h.reloads.Load()
	st.ReloadFailures = h.reloadFails.Load()
	st.Faults = h.faults.Load()
	return st
}
