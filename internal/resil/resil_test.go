package resil

import (
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"fannr/internal/core"
	"fannr/internal/graph"
)

// fakeClock drives a breaker through its cooldown without sleeping.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// admitted reports whether b admits a call, probe or not.
func admitted(b *Breaker) bool {
	ok, _ := b.Admit()
	return ok
}

// TestBreakerCycle walks the full state machine: failures below the
// threshold keep it closed, the threshold-th opens it, the cooldown
// admits a single half-open probe, a failed probe reopens, a successful
// one closes.
func TestBreakerCycle(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	b := NewBreaker(3, 10*time.Second)
	b.now = clk.now

	if !admitted(b) || b.State() != Closed {
		t.Fatal("new breaker must be closed")
	}
	b.Failure()
	b.Failure()
	if b.State() != Closed {
		t.Fatalf("state %v after 2/3 failures, want closed", b.State())
	}
	b.Success() // resets the streak
	b.Failure()
	b.Failure()
	if b.State() != Closed {
		t.Fatal("success did not reset the failure streak")
	}
	b.Failure()
	if b.State() != Open {
		t.Fatalf("state %v after 3 consecutive failures, want open", b.State())
	}
	if admitted(b) {
		t.Fatal("open breaker allowed a call before cooldown")
	}

	clk.advance(9 * time.Second)
	if admitted(b) {
		t.Fatal("open breaker allowed a call 1s before cooldown elapsed")
	}
	clk.advance(2 * time.Second)
	if !admitted(b) {
		t.Fatal("cooldown elapsed but probe rejected")
	}
	if b.State() != HalfOpen {
		t.Fatalf("state %v after probe admitted, want half-open", b.State())
	}
	if admitted(b) {
		t.Fatal("second caller admitted while probe in flight")
	}

	b.Failure() // probe failed: straight back to open
	if b.State() != Open {
		t.Fatalf("state %v after failed probe, want open", b.State())
	}
	clk.advance(11 * time.Second)
	if !admitted(b) {
		t.Fatal("second probe rejected after another cooldown")
	}
	b.Success()
	if b.State() != Closed || !admitted(b) {
		t.Fatal("successful probe did not close the breaker")
	}
}

// TestBreakerAdmitProbe pins the probe flag: Admit marks exactly the
// caller that flips Open → HalfOpen, closed-state admissions are not
// probes, and a probe that reports Failure buys a fresh full cooldown
// before the next probe is marked.
func TestBreakerAdmitProbe(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	b := NewBreaker(1, 10*time.Second)
	b.now = clk.now

	if ok, probe := b.Admit(); !ok || probe {
		t.Fatalf("closed breaker: Admit = (%v, %v), want (true, false)", ok, probe)
	}
	b.Failure()
	if ok, _ := b.Admit(); ok {
		t.Fatal("open breaker admitted before cooldown")
	}
	clk.advance(11 * time.Second)
	if ok, probe := b.Admit(); !ok || !probe {
		t.Fatalf("after cooldown: Admit = (%v, %v), want (true, true)", ok, probe)
	}
	if ok, _ := b.Admit(); ok {
		t.Fatal("second caller admitted while probe in flight")
	}
	// A dropped probe reported as Failure re-opens with a fresh cooldown.
	b.Failure()
	if b.State() != Open {
		t.Fatalf("state %v after failed probe, want open", b.State())
	}
	clk.advance(9 * time.Second)
	if ok, _ := b.Admit(); ok {
		t.Fatal("re-opened breaker admitted before the fresh cooldown elapsed")
	}
	clk.advance(2 * time.Second)
	if ok, probe := b.Admit(); !ok || !probe {
		t.Fatalf("second probe: Admit = (%v, %v), want (true, true)", ok, probe)
	}
	b.Success()
	if ok, probe := b.Admit(); !ok || probe {
		t.Fatalf("recovered breaker: Admit = (%v, %v), want (true, false)", ok, probe)
	}
}

// TestBreakerZeroCooldownIsDefault pins what a cooldown of 0 means on
// every tier — the server's engine breakers and the coordinator's shard
// breakers alike, and so both binaries' -breaker-cooldown 0.
func TestBreakerZeroCooldownIsDefault(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	b := NewBreaker(1, 0)
	b.now = clk.now
	b.Failure()
	clk.advance(DefaultCooldown - time.Millisecond)
	if ok, _ := b.Admit(); ok {
		t.Fatal("admitted before DefaultCooldown elapsed")
	}
	clk.advance(time.Millisecond)
	if ok, probe := b.Admit(); !ok || !probe {
		t.Fatalf("after DefaultCooldown: Admit = (%v, %v), want (true, true)", ok, probe)
	}
}

// TestBreakerDisabled pins that threshold <= 0 (including the zero
// value) never counts, never opens, never blocks.
func TestBreakerDisabled(t *testing.T) {
	for _, b := range []*Breaker{NewBreaker(0, time.Second), {}} {
		for i := 0; i < 100; i++ {
			b.Failure()
		}
		if !admitted(b) || b.State() != Closed {
			t.Fatal("disabled breaker tripped")
		}
		b.Success()
	}
}

// TestBreakerConcurrent hammers one breaker from many goroutines; run
// under -race. The invariant: it never deadlocks and ends in a legal
// state.
func TestBreakerConcurrent(t *testing.T) {
	b := NewBreaker(5, time.Microsecond)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				if admitted(b) {
					if (i+j)%3 == 0 {
						b.Failure()
					} else {
						b.Success()
					}
				}
			}
		}(i)
	}
	wg.Wait()
	if s := b.State(); s != Closed && s != Open && s != HalfOpen {
		t.Fatalf("illegal state %d", s)
	}
}

func chaosInner(t testing.TB) core.GPhi {
	t.Helper()
	g, err := graph.Generate(graph.GenConfig{Nodes: 40, Seed: 3, Name: "chaos"})
	if err != nil {
		t.Fatal(err)
	}
	gp := core.NewINE(g)
	gp.Reset([]graph.NodeID{1, 2, 3})
	return gp
}

// distPanics runs one Dist call and reports whether (and with what) it
// panicked.
func distPanics(gp core.GPhi, p graph.NodeID) (panicked bool, val any) {
	defer func() {
		if rec := recover(); rec != nil {
			panicked, val = true, rec
		}
	}()
	gp.Dist(p, 2, core.Max)
	return false, nil
}

// TestChaosDeterministic pins the injector contract: disarmed wrappers
// are transparent, armed ones raise a seed-determined fault sequence
// that replays exactly, and injected error panics carry ErrInjected.
func TestChaosDeterministic(t *testing.T) {
	sequence := func() []bool {
		in := NewInjector(ChaosConfig{Seed: 42, ErrProb: 0.5})
		gp := in.Wrap(chaosInner(t))
		if gp.Name() != "INE" {
			t.Fatalf("wrapper changed the engine name to %q", gp.Name())
		}
		// Disarmed: fully transparent.
		for i := 0; i < 20; i++ {
			if panicked, _ := distPanics(gp, graph.NodeID(i%10)); panicked {
				t.Fatal("disarmed injector raised a fault")
			}
		}
		in.Arm()
		var seq []bool
		sawErr := false
		for i := 0; i < 40; i++ {
			panicked, val := distPanics(gp, graph.NodeID(i%10))
			seq = append(seq, panicked)
			if panicked {
				err, ok := val.(error)
				if !ok || !errors.Is(err, ErrInjected) {
					t.Fatalf("injected fault carried %v, want ErrInjected", val)
				}
				sawErr = true
			}
		}
		if !sawErr {
			t.Fatal("armed injector with ErrProb=0.5 never fired in 40 calls")
		}
		in.Disarm()
		if panicked, _ := distPanics(gp, 1); panicked {
			t.Fatal("disarmed injector still raising faults")
		}
		return seq
	}
	a, b := sequence(), sequence()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fault sequences diverge at call %d: same seed must replay identically", i)
		}
	}
}

// TestChaosPanicMode pins the plain-panic flavor (PanicProb) and that
// separate wraps from one injector draw distinct streams.
func TestChaosPanicMode(t *testing.T) {
	in := NewInjector(ChaosConfig{Seed: 7, PanicProb: 1})
	gp := in.Wrap(chaosInner(t))
	in.Arm()
	panicked, val := distPanics(gp, 1)
	if !panicked {
		t.Fatal("PanicProb=1 did not panic")
	}
	if _, isErr := val.(error); isErr {
		t.Fatalf("PanicProb mode carried an error %v; that is ErrProb's job", val)
	}
	if in.wraps.Load() != 1 {
		t.Fatalf("wraps counter %d, want 1", in.wraps.Load())
	}
	_ = in.Wrap(chaosInner(t))
	if in.wraps.Load() != 2 {
		t.Fatalf("wraps counter %d, want 2", in.wraps.Load())
	}
}

// TestBreakerOnTransition checks every edge of the state machine fires
// the callback exactly once, with the right endpoints, outside the lock.
func TestBreakerOnTransition(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	b := NewBreaker(2, 10*time.Second)
	b.now = clk.now

	type edge struct{ from, to State }
	var edges []edge
	b.OnTransition(func(from, to State) {
		// Calling State() here would deadlock if the callback ran under
		// b.mu — that it returns at all is part of the assertion.
		_ = b.State()
		edges = append(edges, edge{from, to})
	})

	b.Failure()
	b.Failure() // threshold-th consecutive failure: closed → open
	clk.advance(11 * time.Second)
	if ok, probe := b.Admit(); !ok || !probe { // open → half-open
		t.Fatalf("Admit after cooldown = (%v, %v), want probe", ok, probe)
	}
	b.Failure() // failed probe: half-open → open
	clk.advance(11 * time.Second)
	if ok, probe := b.Admit(); !ok || !probe {
		t.Fatalf("second probe not admitted (ok=%v probe=%v)", ok, probe)
	}
	b.Success() // successful probe: half-open → closed
	b.Success() // already closed: no transition

	want := []edge{
		{Closed, Open},
		{Open, HalfOpen},
		{HalfOpen, Open},
		{Open, HalfOpen},
		{HalfOpen, Closed},
	}
	if len(edges) != len(want) {
		t.Fatalf("saw %d transitions %v, want %d %v", len(edges), edges, len(want), want)
	}
	for i, e := range edges {
		if e != want[i] {
			t.Fatalf("transition %d = %v→%v, want %v→%v", i, e.from, e.to, want[i].from, want[i].to)
		}
	}
}

// thresholdSpy records the thresholds its DistBelow is handed.
type thresholdSpy struct {
	core.GPhi
	taus []float64
}

func (s *thresholdSpy) DistBelow(p graph.NodeID, k int, agg core.Aggregate, tau float64) (float64, bool) {
	s.taus = append(s.taus, tau)
	return s.GPhi.Dist(p, k, agg)
}

// distOnly hides every optional capability of an engine, DistBelow
// among them.
type distOnly struct{ core.GPhi }

// TestChaosForwardsThreshold: a wrapped engine that takes a threshold
// still gets it — so a chaos arm evaluates the way the served path does
// — after the fault draw, not instead of it; Dist arrives as +Inf; and
// an engine without the capability is called through Dist as before.
func TestChaosForwardsThreshold(t *testing.T) {
	spy := &thresholdSpy{GPhi: chaosInner(t)}
	in := NewInjector(ChaosConfig{Seed: 1, PanicProb: 1})
	gp := in.Wrap(spy)
	below, ok := gp.(core.DistBelower)
	if !ok {
		t.Fatal("ChaosEngine does not forward DistBelow")
	}
	want, _ := spy.GPhi.Dist(4, 2, core.Max)
	if d, ok := below.DistBelow(4, 2, core.Max, 12.5); !ok || d != want {
		t.Fatalf("disarmed DistBelow = (%v, %v), want %v", d, ok, want)
	}
	if d, ok := gp.Dist(4, 2, core.Max); !ok || d != want {
		t.Fatalf("disarmed Dist = (%v, %v), want %v", d, ok, want)
	}
	if len(spy.taus) != 2 || spy.taus[0] != 12.5 || !math.IsInf(spy.taus[1], 1) {
		t.Fatalf("inner saw thresholds %v, want [12.5 +Inf]", spy.taus)
	}
	in.Arm()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("armed DistBelow with PanicProb=1 did not panic")
			}
		}()
		below.DistBelow(4, 2, core.Max, 12.5)
	}()
	if len(spy.taus) != 2 {
		t.Fatal("the fault was drawn after the evaluation, not before")
	}
	in.Disarm()
	plain := in.Wrap(distOnly{chaosInner(t)})
	if d, ok := plain.(core.DistBelower).DistBelow(4, 2, core.Max, 0); !ok || d != want {
		t.Fatalf("DistBelow over an engine without the capability = (%v, %v), want Dist's %v", d, ok, want)
	}
}

// TestChaosForwardsStats: a disarmed wrapper binds the request's Stats to
// the engine it wraps, so GD through it counts the settles and abandoned
// evaluations GD through the bare engine counts; binding nil unbinds the
// inner engine as well.
func TestChaosForwardsStats(t *testing.T) {
	g, err := graph.Generate(graph.GenConfig{Nodes: 300, Seed: 5, Name: "chaos-stats"})
	if err != nil {
		t.Fatal(err)
	}
	var P []graph.NodeID
	for v := 0; v < g.NumNodes(); v += 3 {
		P = append(P, graph.NodeID(v))
	}
	Q := []graph.NodeID{10, 40, 70, 100, 130}
	run := func(gp core.GPhi, st *core.Stats) {
		core.BindStats(gp, st)
		q := core.Query{P: P, Q: Q, Phi: 0.6, Agg: core.Sum, Stats: st}
		if _, err := core.GD(g, gp, q, 1); err != nil {
			t.Fatal(err)
		}
		core.BindStats(gp, nil)
	}
	var bare, chaos core.Stats
	run(core.NewINE(g), &bare)
	inner := core.NewINE(g)
	run(NewInjector(ChaosConfig{Seed: 1, PanicProb: 1}).Wrap(inner), &chaos)
	if chaos != bare {
		t.Fatalf("GD through the disarmed wrapper counted %+v, through the bare engine %+v", chaos, bare)
	}
	if bare.Settled == 0 || bare.GPhiAbandoned == 0 {
		t.Fatalf("the bare engine counted no settles or no abandons (%+v): the comparison shows nothing", bare)
	}
	before := chaos
	inner.Reset(Q)
	inner.Dist(5, 2, core.Max)
	if chaos != before {
		t.Fatalf("the inner engine still counts into the request's Stats after BindStats(nil): %+v, was %+v", chaos, before)
	}
}
