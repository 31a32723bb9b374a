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
)

// TestRaceHammerCache drives the sharded LRU from many goroutines with a
// working set larger than the cache, so gets, puts and evictions all
// interleave. Run under -race (the race Makefile tier includes this
// package); the assertions check the gauges against what the shards
// hold, because correctness under contention IS the absence of races
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
				switch rng.Intn(2) {
				case 0:
					key := rkey("E", 0.5, 1+rng.Intn(3), Fingerprint{Lo: uint64(p)}, q)
					c.PutResult(key, []core.Answer{{P: p, Dist: 1}})
				case 1:
					key := rkey("E", 0.5, 1+rng.Intn(3), Fingerprint{Lo: uint64(p)}, q)
					if ans, ok := c.GetResult(key); ok && (len(ans) != 1 || ans[0].P != p) {
						t.Errorf("cross-wired result %v for p=%d", ans, p)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	m := c.Metrics()
	if n, bytes := c.held(); m.Entries != n || m.Bytes != bytes {
		t.Fatalf("gauges %+v, shards hold %d entries of %d bytes", m, n, bytes)
	}
}

// held counts the entries and bytes the shards hold, for checking the
// cache's gauges against.
func (c *Cache) held() (n, bytes int64) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += int64(len(s.entries))
		for _, e := range s.entries {
			bytes += e.size
		}
		s.mu.Unlock()
	}
	return n, bytes
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
