// Package par provides the worker-pool primitive behind the repository's
// parallel index-construction passes (the G-tree's matrix builds) and
// any other embarrassingly parallel loop.
//
// Every parallel entry point in the repo exposes a `Workers int` option
// with the same convention: 0 means one worker per GOMAXPROCS, 1 forces
// the sequential path (the determinism tests' baseline), and any other
// positive value is taken literally. Resolve implements the convention
// in one place.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Resolve maps a Workers option value to a concrete worker count:
// 0 (or negative) resolves to runtime.GOMAXPROCS(0), anything else is
// returned unchanged.
func Resolve(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// Do calls fn(worker, i) exactly once for every i in [0, n), fanning the
// calls out across min(workers, n) goroutines, and returns once all calls
// have completed. Worker ids are dense in [0, workers): calls sharing a
// worker id never run concurrently, so per-worker scratch (heaps, distance
// arrays) needs no locking. Items are handed out dynamically through an
// atomic counter, which load-balances uneven item costs.
//
// With one worker (or n <= 1) the loop runs inline on the caller's
// goroutine — bit-for-bit the sequential code path, with no goroutines
// spawned.
func Do(workers, n int, fn func(worker, i int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = Resolve(workers)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(w, i)
			}
		}(w)
	}
	wg.Wait()
}
