package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fannr/internal/graph"
	"fannr/internal/gtree"
	"fannr/internal/phl"
	"fannr/internal/sp"
)

func TestEnginePoolReuseAndBound(t *testing.T) {
	g, err := graph.Generate(graph.GenConfig{Nodes: 60, Seed: 2, Name: "pool"})
	if err != nil {
		t.Fatal(err)
	}
	p := NewBoundedEnginePool("INE", 2, PoolLimits{}, func() GPhi { return NewINE(g) })
	if p.Name() != "INE" || p.Capacity() != 2 {
		t.Fatalf("name %q capacity %d", p.Name(), p.Capacity())
	}
	a, b, c := p.Get(), p.Get(), p.Get()
	if created, _, _ := p.Stats(); created != 3 {
		t.Fatalf("created %d, want 3", created)
	}
	p.Put(a)
	p.Put(b)
	p.Put(c) // beyond capacity: dropped
	if _, _, idle := p.Stats(); idle != 2 {
		t.Fatalf("idle %d, want capacity 2", idle)
	}
	got := p.Get()
	if got != b && got != a {
		t.Fatal("Get did not reuse a pooled engine")
	}
	if _, reused, _ := p.Stats(); reused != 1 {
		t.Fatalf("reused %d, want 1", reused)
	}
	p.Put(nil) // no-op
	if _, _, idle := p.Stats(); idle != 1 {
		t.Fatalf("idle after nil Put: %d, want 1", idle)
	}
}

func TestEnginePoolDefaultCapacity(t *testing.T) {
	p := NewBoundedEnginePool("x", 0, PoolLimits{}, func() GPhi { return nil })
	if p.Capacity() < 1 {
		t.Fatalf("default capacity %d", p.Capacity())
	}
}

// panickyINE panics on every evaluation.
type panickyINE struct{ GPhi }

func (panickyINE) Dist(graph.NodeID, int, Aggregate) (float64, bool) { panic("boom") }

// TestEnginePoolRunDiscardsOnPanic pins the engine-run rule every tier
// relies on: a clean run repools its engine, a panicking one is dropped
// and comes back as ErrEnginePanic with the panic's value and no stack,
// and either way the admission slot is freed.
func TestEnginePoolRunDiscardsOnPanic(t *testing.T) {
	g, err := graph.Generate(graph.GenConfig{Nodes: 60, Seed: 2, Name: "pool"})
	if err != nil {
		t.Fatal(err)
	}
	q := Query{P: []graph.NodeID{1, 2, 3}, Q: []graph.NodeID{4, 5}, Phi: 1}
	if err := q.Validate(g); err != nil {
		t.Fatal(err)
	}
	limits := PoolLimits{MaxInFlight: 1}
	ok := NewBoundedEnginePool("INE", 1, limits, func() GPhi { return NewINE(g) })
	if _, err := ok.Run(context.Background(), g, "gd", q, 1, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, idle := ok.Stats(); idle != 1 {
		t.Fatalf("clean run: idle %d, want the engine back", idle)
	}
	bad := NewBoundedEnginePool("Boom", 1, limits, func() GPhi { return panickyINE{NewINE(g)} })
	for i := 0; i < 2; i++ { // the second run proves the slot was freed
		_, err := bad.Run(context.Background(), g, "gd", q, 1, nil)
		if !errors.Is(err, ErrEnginePanic) || err.Error() != "engine panic: boom" {
			t.Fatalf("run %d: err %v, want %q", i, err, "engine panic: boom")
		}
	}
	if created, _, idle := bad.Stats(); idle != 0 || created != 2 {
		t.Fatalf("panicked engines: created %d idle %d, want 2 built and none repooled", created, idle)
	}
}

// TestEnginePoolConcurrentHammer is the concurrent-correctness test of the
// pool architecture: many goroutines check engines out of shared pools and
// run randomized FANN_R queries; every answer must match the sequential
// brute-force reference. Run it under -race to certify the checkout
// contract (shared immutable indexes, exclusive per-checkout scratch).
func TestEnginePoolConcurrentHammer(t *testing.T) {
	g, err := graph.Generate(graph.GenConfig{Nodes: 500, Seed: 11, Name: "hammer"})
	if err != nil {
		t.Fatal(err)
	}
	labels, err := phl.Build(g, phl.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := gtree.Build(g, gtree.Options{MaxLeafSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	pools := []*EnginePool{
		NewBoundedEnginePool("INE", 4, PoolLimits{}, func() GPhi { return NewINE(g) }),
		NewBoundedEnginePool("A*", 4, PoolLimits{}, func() GPhi { return NewOracleGPhi("A*", sp.NewAStar(g)) }),
		NewBoundedEnginePool("PHL", 4, PoolLimits{}, func() GPhi { return NewOracleGPhi("PHL", labels) }),
		NewBoundedEnginePool("GTree", 4, PoolLimits{}, func() GPhi { return NewGTreeGPhi(tr) }),
		NewBoundedEnginePool("IER-PHL", 4, PoolLimits{}, func() GPhi {
			e, err := NewIERGPhi("IER-PHL", g, labels)
			if err != nil {
				panic(err)
			}
			return e
		}),
	}

	// Reference answers, computed sequentially with independent machinery.
	type refQuery struct {
		q    Query
		want Answer
	}
	numQueries, goroutines, iters := 16, 8, 24
	if testing.Short() {
		numQueries, goroutines, iters = 6, 4, 8
	}
	rng := rand.New(rand.NewSource(7))
	var refs []refQuery
	for len(refs) < numQueries {
		q := Query{
			P:   randomNodes(rng, g, 3+rng.Intn(8)),
			Q:   randomNodes(rng, g, 2+rng.Intn(10)),
			Phi: 0.25 + rng.Float64()*0.75,
			Agg: Aggregate(rng.Intn(2)),
		}
		want, err := Brute(g, q)
		if err != nil {
			continue // e.g. unreachable ⌈φ|Q|⌉ — uninteresting here
		}
		refs = append(refs, refQuery{q: q, want: want})
	}

	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for it := 0; it < iters; it++ {
				ref := refs[rng.Intn(len(refs))]
				pool := pools[rng.Intn(len(pools))]
				gp := pool.Get()
				var got Answer
				var err error
				if it%2 == 0 {
					got, err = first(GD(g, gp, ref.q, 1))
				} else {
					got, err = first(RList(g, gp, ref.q, 1))
				}
				pool.Put(gp)
				if err != nil {
					errs <- err
					return
				}
				if math.Abs(got.Dist-ref.want.Dist) > 1e-6 {
					t.Errorf("pool %s: dist %v, want %v", pool.Name(), got.Dist, ref.want.Dist)
					return
				}
				if len(got.Subset) != ref.q.K() {
					t.Errorf("pool %s: subset size %d, want %d", pool.Name(), len(got.Subset), ref.q.K())
					return
				}
			}
		}(int64(gi) + 100)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// randomNodes draws count distinct node ids.
func randomNodes(rng *rand.Rand, g *graph.Graph, count int) []graph.NodeID {
	seen := map[graph.NodeID]bool{}
	out := make([]graph.NodeID, 0, count)
	for len(out) < count {
		v := graph.NodeID(rng.Intn(g.NumNodes()))
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// TestBoundedAcquireShedsBeyondQueue pins the admission state machine on
// a pool with cap 1 and queue depth 1: the first Acquire admits, the
// second queues, the third sheds immediately with ErrSaturated, and a
// Release promotes the queued caller.
func TestBoundedAcquireShedsBeyondQueue(t *testing.T) {
	g, err := graph.Generate(graph.GenConfig{Nodes: 60, Seed: 2, Name: "adm"})
	if err != nil {
		t.Fatal(err)
	}
	p := NewBoundedEnginePool("INE", 1, PoolLimits{MaxInFlight: 1, QueueDepth: 1},
		func() GPhi { return NewINE(g) })
	if lim := p.Limits(); lim.MaxInFlight != 1 || lim.QueueDepth != 1 {
		t.Fatalf("limits %+v", lim)
	}

	ctx := context.Background()
	first, err := p.Acquire(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if inflight, _, _ := p.Gauges(); inflight != 1 {
		t.Fatalf("inflight %d, want 1", inflight)
	}

	// Second caller occupies the one queue slot.
	queuedGot := make(chan error, 1)
	go func() {
		gp, err := p.Acquire(ctx)
		if err == nil {
			p.Release(gp)
		}
		queuedGot <- err
	}()
	waitFor(t, func() bool { _, q, _ := p.Gauges(); return q == 1 })

	// Third caller finds cap and queue full: shed, not blocked.
	if _, err := p.Acquire(ctx); !errors.Is(err, ErrSaturated) {
		t.Fatalf("third Acquire returned %v, want ErrSaturated", err)
	}
	if _, _, shed := p.Gauges(); shed != 1 {
		t.Fatalf("shed gauge %d, want 1", shed)
	}

	p.Release(first)
	if err := <-queuedGot; err != nil {
		t.Fatalf("queued caller got %v after Release, want admission", err)
	}
	waitFor(t, func() bool { inflight, q, _ := p.Gauges(); return inflight == 0 && q == 0 })
}

// TestBoundedAcquireHonorsDeadline pins that a queued caller gives up
// with the context's error when its deadline fires before a slot frees.
func TestBoundedAcquireHonorsDeadline(t *testing.T) {
	g, err := graph.Generate(graph.GenConfig{Nodes: 60, Seed: 2, Name: "adm"})
	if err != nil {
		t.Fatal(err)
	}
	p := NewBoundedEnginePool("INE", 1, PoolLimits{MaxInFlight: 1, QueueDepth: 4},
		func() GPhi { return NewINE(g) })
	held, err := p.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Release(held)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := p.Acquire(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued Acquire returned %v, want DeadlineExceeded", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("queued Acquire did not give up at the deadline")
	}
	if _, q, _ := p.Gauges(); q != 0 {
		t.Fatalf("queue gauge %d after deadline, want 0", q)
	}
	// An already-dead context never even tries.
	deadCtx, deadCancel := context.WithCancel(context.Background())
	deadCancel()
	if _, err := p.Acquire(deadCtx); !errors.Is(err, context.Canceled) {
		t.Fatalf("dead-context Acquire returned %v, want Canceled", err)
	}
}

// TestBoundedPoolCapsEngineBuilds is the OOM-resistance property: a
// hammer at 8x the in-flight cap must never cause the factory to build
// more than MaxInFlight engines, because the factory only runs under an
// admission token and the free list retains every released engine.
// Discard is exercised too — a dropped engine frees its slot and the
// replacement build still counts against the same cap.
func TestBoundedPoolCapsEngineBuilds(t *testing.T) {
	g, err := graph.Generate(graph.GenConfig{Nodes: 120, Seed: 3, Name: "cap"})
	if err != nil {
		t.Fatal(err)
	}
	const (
		maxInFlight = 3
		queueDepth  = 2
		goroutines  = 8 * maxInFlight
	)
	var live, peak atomic.Int64
	p := NewBoundedEnginePool("INE", maxInFlight,
		PoolLimits{MaxInFlight: maxInFlight, QueueDepth: queueDepth},
		func() GPhi {
			n := live.Add(1)
			for {
				old := peak.Load()
				if n <= old || peak.CompareAndSwap(old, n) {
					break
				}
			}
			return NewINE(g)
		})

	var wg sync.WaitGroup
	var admitted, shedCount atomic.Int64
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for it := 0; it < 30; it++ {
				ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
				gp, err := p.Acquire(ctx)
				cancel()
				switch {
				case err == nil:
					admitted.Add(1)
					gp.Reset([]graph.NodeID{1, 5, 9})
					_, _ = gp.Dist(graph.NodeID((i+it)%g.NumNodes()), 2, Max)
					if (i+it)%7 == 0 {
						live.Add(-1) // engine abandoned for the GC
						p.Discard()
					} else {
						p.Release(gp)
					}
				case errors.Is(err, ErrSaturated) || errors.Is(err, context.DeadlineExceeded):
					shedCount.Add(1)
				default:
					t.Errorf("unexpected Acquire error: %v", err)
					return
				}
			}
		}(i)
	}
	wg.Wait()

	if got := peak.Load(); got > maxInFlight {
		t.Fatalf("peak live engines %d, want <= cap %d", got, maxInFlight)
	}
	if admitted.Load() == 0 {
		t.Fatal("hammer admitted nothing")
	}
	inflight, queued, _ := p.Gauges()
	if inflight != 0 || queued != 0 {
		t.Fatalf("gauges not drained: inflight=%d queued=%d", inflight, queued)
	}
	t.Logf("admitted=%d shed=%d peak=%d created=%d",
		admitted.Load(), shedCount.Load(), peak.Load(), func() int64 { c, _, _ := p.Stats(); return c }())
}

// TestAcquireFactoryPanicReleasesSlot pins that a factory panic inside
// Acquire does not leak the admission token or the inflight gauge: the
// caller's Discard defer only exists after Acquire returns, so without
// the in-Acquire release every factory panic would permanently shrink
// MaxInFlight until the pool deadlocks.
func TestAcquireFactoryPanicReleasesSlot(t *testing.T) {
	g, err := graph.Generate(graph.GenConfig{Nodes: 60, Seed: 2, Name: "fpanic"})
	if err != nil {
		t.Fatal(err)
	}
	boom := true
	p := NewBoundedEnginePool("INE", 1, PoolLimits{MaxInFlight: 1},
		func() GPhi {
			if boom {
				boom = false
				panic("factory boom")
			}
			return NewINE(g)
		})

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Acquire swallowed the factory panic")
			}
		}()
		_, _ = p.Acquire(context.Background())
	}()

	if inflight, _, _ := p.Gauges(); inflight != 0 {
		t.Fatalf("inflight %d after factory panic, want 0", inflight)
	}
	// With QueueDepth 0, a leaked token would make this shed immediately.
	gp, err := p.Acquire(context.Background())
	if err != nil {
		t.Fatalf("Acquire after factory panic: %v — admission slot leaked", err)
	}
	p.Release(gp)
}

// TestUnboundedAcquireDelegates pins that an unbounded pool still
// admits everything (legacy shape) while tracking the in-flight gauge.
func TestUnboundedAcquireDelegates(t *testing.T) {
	g, err := graph.Generate(graph.GenConfig{Nodes: 60, Seed: 2, Name: "unb"})
	if err != nil {
		t.Fatal(err)
	}
	p := NewBoundedEnginePool("INE", 2, PoolLimits{}, func() GPhi { return NewINE(g) })
	if lim := p.Limits(); lim.MaxInFlight != 0 {
		t.Fatalf("unbounded pool reports cap %d", lim.MaxInFlight)
	}
	var engines []GPhi
	for i := 0; i < 10; i++ {
		gp, err := p.Acquire(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		engines = append(engines, gp)
	}
	if inflight, _, shed := p.Gauges(); inflight != 10 || shed != 0 {
		t.Fatalf("gauges inflight=%d shed=%d, want 10, 0", inflight, shed)
	}
	for _, gp := range engines {
		p.Release(gp)
	}
	if inflight, _, _ := p.Gauges(); inflight != 0 {
		t.Fatalf("inflight %d after releases, want 0", inflight)
	}
}

// waitFor polls cond for up to two seconds.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition never became true")
}
