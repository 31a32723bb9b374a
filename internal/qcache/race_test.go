package qcache

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"fannr/internal/core"
	"fannr/internal/graph"
	"fannr/internal/sp"
)

// TestRaceHammerCache drives the sharded LRU from many goroutines with a
// working set larger than the cache, so gets, puts, evictions, purges
// and doorkeeper bindings all interleave. Run under -race (the race Makefile
// tier includes this package); the assertions only sanity-check the
// gauges because correctness under contention IS the absence of races
// plus gauge consistency.
func TestRaceHammerCache(t *testing.T) {
	c := New(Config{MaxEntries: 128})
	qfps := []Fingerprint{
		FingerprintNodes([]graph.NodeID{1, 2}),
		FingerprintNodes([]graph.NodeID{3, 4, 5}),
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 3000; i++ {
				q := qfps[rng.Intn(len(qfps))]
				p := graph.NodeID(rng.Intn(300))
				switch rng.Intn(6) {
				case 0:
					n := 1 + rng.Intn(4)
					nbrs := make([]sp.Neighbor, n)
					for j := range nbrs {
						nbrs[j] = sp.Neighbor{Node: graph.NodeID(j), Dist: float64(j + 1)}
					}
					c.PutList("E", q, p, nbrs, rng.Intn(2) == 0)
				case 1:
					if nbrs, ok := c.GetList("E", q, p, 1+rng.Intn(4)); ok {
						for j := 1; j < len(nbrs); j++ {
							if nbrs[j].Dist < nbrs[j-1].Dist {
								t.Errorf("unsorted cached list %v", nbrs)
								return
							}
						}
					}
				case 2:
					key := rkey("E", 0.5, 1+rng.Intn(3), Fingerprint{Lo: uint64(p)}, q)
					c.PutResult(key, []core.Answer{{P: p, Dist: 1}})
				case 3:
					key := rkey("E", 0.5, 1+rng.Intn(3), Fingerprint{Lo: uint64(p)}, q)
					if ans, ok := c.GetResult(key); ok && (len(ans) != 1 || ans[0].P != p) {
						t.Errorf("cross-wired result %v for p=%d", ans, p)
						return
					}
				case 4:
					if i%512 == 0 {
						c.Purge()
					}
				case 5:
					c.seenBound("E", Fingerprint{Lo: uint64(rng.Intn(600))})
				}
			}
		}(w)
	}
	wg.Wait()
	m := c.Metrics()
	if m.Entries < 0 || m.Bytes < 0 {
		t.Fatalf("gauges went negative: %+v", m)
	}
	c.Purge()
	if m := c.Metrics(); m.Entries != 0 || m.Bytes != 0 {
		t.Fatalf("purge left %+v", m)
	}
}

// TestRaceHammerFlight mixes successful, failing, canceled and panicking
// leaders over a small key space and then checks that no goroutine is
// left behind — the coalescing layer must never leak a parked follower.
func TestRaceHammerFlight(t *testing.T) {
	baseline := runtime.NumGoroutine()
	f := NewFlight(func(err error) bool { return errors.Is(err, core.ErrNoResult) })
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 100))
			for i := 0; i < 400; i++ {
				key := fkey(string(rune('a' + rng.Intn(3))))
				mode := rng.Intn(4)
				ctx := context.Background()
				var cancel context.CancelFunc
				if mode == 2 {
					ctx, cancel = context.WithCancel(ctx)
					cancel() // follower/leader with a dead ctx
				}
				func() {
					defer func() { recover() }() // mode 3 panics
					f.Do(ctx, key, "rid", func() (any, error) {
						switch mode {
						case 0:
							return i, nil
						case 1:
							return nil, core.ErrNoResult
						case 3:
							panic("leader down")
						default:
							return nil, ctx.Err()
						}
					})
				}()
				if cancel != nil {
					cancel()
				}
			}
		}(w)
	}
	wg.Wait()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines %d, baseline %d — leaked followers", runtime.NumGoroutine(), baseline)
}
