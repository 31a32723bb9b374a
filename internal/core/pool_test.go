package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fannr/internal/graph"
	"fannr/internal/gtree"
	"fannr/internal/phl"
	"fannr/internal/sp"
)

// holdINE is an INE engine whose evaluations wait until hold is closed:
// a Run on it keeps its checkout, engine and Scratch, until the test lets
// go.
type holdINE struct {
	GPhi
	hold <-chan struct{}
}

func (e holdINE) Dist(p graph.NodeID, k int, agg Aggregate) (float64, bool) {
	<-e.hold
	return e.GPhi.Dist(p, k, agg)
}

// poolEnv is a small graph and a validated query over it.
func poolEnv(t *testing.T) (*graph.Graph, Query) {
	t.Helper()
	g, err := graph.Generate(graph.GenConfig{Nodes: 60, Seed: 2, Name: "pool"})
	if err != nil {
		t.Fatal(err)
	}
	q := Query{P: []graph.NodeID{1, 2, 3}, Q: []graph.NodeID{4, 5}, Phi: 1}
	if err := q.Validate(g); err != nil {
		t.Fatal(err)
	}
	return g, q
}

// holdPool returns a pool of holdINE engines under limits and the channel
// whose closing lets their Runs finish.
func holdPool(g *graph.Graph, capacity int, limits PoolLimits) (*EnginePool, chan struct{}) {
	hold := make(chan struct{})
	return NewBoundedEnginePool("INE", capacity, limits, func() GPhi { return holdINE{NewINE(g), hold} }), hold
}

// runHeld starts n Runs of q on p, each in its own goroutine, and
// returns a channel that yields each one's error.
func runHeld(p *EnginePool, g *graph.Graph, q Query, n int) <-chan error {
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			_, err := p.Run(context.Background(), g, "gd", q, 1, nil)
			errs <- err
		}()
	}
	return errs
}

// waitRuns fails unless n Runs report no error.
func waitRuns(t *testing.T, errs <-chan error, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestEnginePoolReuseAndBound: three Runs in flight at once build three
// engines; when they end, the free list keeps capacity 2 of them and drops
// the third, and the next Run reuses a kept one.
func TestEnginePoolReuseAndBound(t *testing.T) {
	g, q := poolEnv(t)
	p, hold := holdPool(g, 2, PoolLimits{})
	errs := runHeld(p, g, q, 3)
	waitFor(t, func() bool { inflight, _, _ := p.Gauges(); return inflight == 3 })
	if created, _, _ := p.Stats(); created != 3 {
		t.Fatalf("created %d, want 3", created)
	}
	close(hold)
	waitRuns(t, errs, 3)
	if _, _, idle := p.Stats(); idle != 2 {
		t.Fatalf("idle %d, want capacity 2", idle)
	}
	if _, err := p.Run(context.Background(), g, "gd", q, 1, nil); err != nil {
		t.Fatal(err)
	}
	if created, reused, idle := p.Stats(); created != 3 || reused != 1 || idle != 2 {
		t.Fatalf("created %d reused %d idle %d, want 3, 1, 2", created, reused, idle)
	}
}

// TestEnginePoolDefaultCapacity: capacity 0 keeps GOMAXPROCS idle
// engines.
func TestEnginePoolDefaultCapacity(t *testing.T) {
	g, q := poolEnv(t)
	p, hold := holdPool(g, 0, PoolLimits{})
	n := runtime.GOMAXPROCS(0)
	errs := runHeld(p, g, q, n+1)
	waitFor(t, func() bool { inflight, _, _ := p.Gauges(); return inflight == int64(n+1) })
	close(hold)
	waitRuns(t, errs, n+1)
	if _, _, idle := p.Stats(); idle != n {
		t.Fatalf("capacity 0 kept %d idle engines, want GOMAXPROCS = %d", idle, n)
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
	g, q := poolEnv(t)
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
// pool architecture: many goroutines run randomized FANN_R queries through
// shared pools; every answer must match the sequential
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
				pi := rng.Intn(len(pools))
				pool := pools[pi]
				algo := "gd"
				if it%2 == 1 {
					algo = "rlist"
				}
				got, err := first(pool.Run(context.Background(), g, algo, ref.q, 1, nil))
				if err != nil {
					errs <- err
					return
				}
				if math.Abs(got.Dist-ref.want.Dist) > 1e-6 {
					t.Errorf("pool %d: dist %v, want %v", pi, got.Dist, ref.want.Dist)
					return
				}
				if len(got.Subset) != ref.q.K() {
					t.Errorf("pool %d: subset size %d, want %d", pi, len(got.Subset), ref.q.K())
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
// a pool with cap 1 and queue depth 1: the first Run is admitted, the
// second queues, the third sheds immediately with ErrSaturated, and the
// first one's end admits the queued one.
func TestBoundedAcquireShedsBeyondQueue(t *testing.T) {
	g, q := poolEnv(t)
	p, hold := holdPool(g, 1, PoolLimits{MaxInFlight: 1, QueueDepth: 1})
	errs := runHeld(p, g, q, 1)
	waitFor(t, func() bool { inflight, _, _ := p.Gauges(); return inflight == 1 })
	errs2 := runHeld(p, g, q, 1)
	waitFor(t, func() bool { _, queued, _ := p.Gauges(); return queued == 1 })

	// The third caller finds cap and queue full: shed, not blocked.
	if _, err := p.Run(context.Background(), g, "gd", q, 1, nil); !errors.Is(err, ErrSaturated) {
		t.Fatalf("third Run returned %v, want ErrSaturated", err)
	}
	if _, _, shed := p.Gauges(); shed != 1 {
		t.Fatalf("shed gauge %d, want 1", shed)
	}

	close(hold)
	waitRuns(t, errs, 1)
	waitRuns(t, errs2, 1)
	if created, reused, _ := p.Stats(); created != 1 || reused != 1 {
		t.Fatalf("created %d reused %d, want the queued Run on the first one's engine", created, reused)
	}
	waitFor(t, func() bool { inflight, q, _ := p.Gauges(); return inflight == 0 && q == 0 })
}

// TestBoundedAcquireHonorsDeadline pins that a queued Run gives up with
// the context's error when its deadline fires before a slot frees.
func TestBoundedAcquireHonorsDeadline(t *testing.T) {
	g, q := poolEnv(t)
	p, hold := holdPool(g, 1, PoolLimits{MaxInFlight: 1, QueueDepth: 4})
	errs := runHeld(p, g, q, 1)
	defer waitRuns(t, errs, 1)
	defer close(hold)
	waitFor(t, func() bool { inflight, _, _ := p.Gauges(); return inflight == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := p.Run(ctx, g, "gd", q, 1, nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued Run returned %v, want DeadlineExceeded", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("queued Run did not give up at the deadline")
	}
	if _, queued, _ := p.Gauges(); queued != 0 {
		t.Fatalf("queue gauge %d after deadline, want 0", queued)
	}
	// An already-dead context never even tries.
	deadCtx, deadCancel := context.WithCancel(context.Background())
	deadCancel()
	if _, err := p.Run(deadCtx, g, "gd", q, 1, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("dead-context Run returned %v, want Canceled", err)
	}
}

// poison is the data point a discardINE panics on.
const poison graph.NodeID = 7

// discardINE is an INE engine that panics when it evaluates poison,
// first taking itself off the live count: Run discards it, and the next
// engine may be built as soon as Run frees the slot.
type discardINE struct {
	GPhi
	live *atomic.Int64
}

func (e discardINE) Dist(p graph.NodeID, k int, agg Aggregate) (float64, bool) {
	if p == poison {
		e.live.Add(-1)
		panic("discarded")
	}
	return e.GPhi.Dist(p, k, agg)
}

// TestBoundedPoolCapsEngineBuilds is the OOM-resistance property: a
// hammer at 8x the in-flight cap must never hold more than MaxInFlight
// live engines, because the factory only runs under an admission slot
// and the free list (capacity MaxInFlight) keeps every engine a Run
// hands back. Discards are exercised too — every seventh Run's query
// holds the poison point, its engine panics and is dropped, and the
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
			return discardINE{NewINE(g), &live}
		})

	var wg sync.WaitGroup
	var admitted, discarded, shedCount atomic.Int64
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for it := 0; it < 30; it++ {
				q := Query{P: []graph.NodeID{graph.NodeID(10 + (i+it)%100)}, Q: []graph.NodeID{1, 5, 9}, Phi: 0.5}
				if (i+it)%7 == 0 {
					q.P = append(q.P, poison)
				}
				ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
				_, err := p.Run(ctx, g, "gd", q, 1, nil)
				cancel()
				switch {
				case err == nil:
					admitted.Add(1)
				case errors.Is(err, ErrEnginePanic):
					admitted.Add(1)
					discarded.Add(1)
				case errors.Is(err, ErrSaturated) || errors.Is(err, context.DeadlineExceeded):
					shedCount.Add(1)
				default:
					t.Errorf("unexpected Run error: %v", err)
					return
				}
			}
		}(i)
	}
	wg.Wait()

	if got := peak.Load(); got > maxInFlight {
		t.Fatalf("peak live engines %d, want <= cap %d", got, maxInFlight)
	}
	if admitted.Load() == 0 || discarded.Load() == 0 {
		t.Fatalf("hammer admitted %d and discarded %d, want both", admitted.Load(), discarded.Load())
	}
	inflight, queued, _ := p.Gauges()
	if inflight != 0 || queued != 0 {
		t.Fatalf("gauges not drained: inflight=%d queued=%d", inflight, queued)
	}
	created, _, idle := p.Stats()
	if idle > maxInFlight || created-discarded.Load() != live.Load() {
		t.Fatalf("created %d, discarded %d, live %d, idle %d: a discarded engine was kept or a kept one lost",
			created, discarded.Load(), live.Load(), idle)
	}
	t.Logf("admitted=%d discarded=%d shed=%d peak=%d created=%d",
		admitted.Load(), discarded.Load(), shedCount.Load(), peak.Load(), created)
}

// TestAcquireFactoryPanicReleasesSlot pins that a factory panic inside
// Run goes on to the caller and does not leak the admission slot or the
// inflight gauge: without the release every factory panic would
// permanently shrink MaxInFlight until the pool deadlocks.
func TestAcquireFactoryPanicReleasesSlot(t *testing.T) {
	g, q := poolEnv(t)
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
			if rec := recover(); rec != "factory boom" {
				t.Fatalf("Run recovered %v, want the factory panic to go on", rec)
			}
		}()
		_, _ = p.Run(context.Background(), g, "gd", q, 1, nil)
	}()

	if inflight, _, _ := p.Gauges(); inflight != 0 {
		t.Fatalf("inflight %d after factory panic, want 0", inflight)
	}
	// With QueueDepth 0, a leaked slot would make this shed immediately.
	if _, err := p.Run(context.Background(), g, "gd", q, 1, nil); err != nil {
		t.Fatalf("Run after factory panic: %v — admission slot leaked", err)
	}
}

// TestUnboundedAcquireDelegates pins that an unbounded pool admits every
// Run while tracking the in-flight gauge.
func TestUnboundedAcquireDelegates(t *testing.T) {
	g, q := poolEnv(t)
	p, hold := holdPool(g, 2, PoolLimits{})
	errs := runHeld(p, g, q, 10)
	waitFor(t, func() bool { inflight, _, _ := p.Gauges(); return inflight == 10 })
	if _, _, shed := p.Gauges(); shed != 0 {
		t.Fatalf("shed %d, want 0", shed)
	}
	close(hold)
	waitRuns(t, errs, 10)
	if inflight, _, _ := p.Gauges(); inflight != 0 {
		t.Fatalf("inflight %d after the Runs, want 0", inflight)
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
