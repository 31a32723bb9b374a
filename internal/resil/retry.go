package resil

import (
	"context"
	"math/rand"
	"time"
)

// RetryPolicy retries an operation with exponentially growing, jittered
// backoff. It exists for the index load path: a reload that races a
// half-written file should wait out the writer rather than give up (or
// worse, hammer the disk in a tight loop). The zero value retries once
// with no delay; tests inject Sleep and Seed so schedules are
// deterministic and instant.
type RetryPolicy struct {
	// Attempts is the total number of tries (not re-tries). Values < 1
	// are treated as 1.
	Attempts int
	// Base is the delay before the second attempt; each later delay
	// doubles, capped at Max (when Max > 0).
	Base time.Duration
	// Max caps the backoff delay. Zero means uncapped.
	Max time.Duration
	// Jitter scales each delay by a uniform factor in [1-Jitter, 1+Jitter]
	// drawn from a stream seeded by Seed, so concurrent reloaders spread
	// out deterministically. Values outside [0,1) are clamped.
	Jitter float64
	// Seed anchors the jitter stream. Each Do call that has to wait
	// derives its own rng, so one policy value is safe to share.
	Seed int64
	// Sleep waits between attempts; nil means time.Sleep via a
	// context-aware wait. Tests inject a recorder to assert the schedule
	// without real delays.
	Sleep func(time.Duration)
}

// Do runs op until it succeeds, attempts are exhausted, or ctx is done.
// The last error is returned (ctx.Err when the context expired first).
func (p RetryPolicy) Do(ctx context.Context, op func() error) error {
	attempts := p.Attempts
	if attempts < 1 {
		attempts = 1
	}
	jitter := p.Jitter
	if jitter < 0 || jitter >= 1 {
		jitter = 0
	}
	// Seeding a math/rand source fills a 4.9 KB state: only a call that
	// actually draws a jittered delay pays for one. The coordinator runs
	// every shard RPC through Do and almost none of them retry.
	var rng *rand.Rand
	delay := p.Base
	var err error
	for i := 0; i < attempts; i++ {
		if e := ctx.Err(); e != nil {
			if err == nil {
				err = e
			}
			return err
		}
		if err = op(); err == nil {
			return nil
		}
		if i == attempts-1 {
			break
		}
		d := delay
		if jitter > 0 && d > 0 {
			if rng == nil {
				rng = rand.New(rand.NewSource(p.Seed))
			}
			d = time.Duration(float64(d) * (1 + jitter*(2*rng.Float64()-1)))
		}
		if p.Sleep != nil {
			p.Sleep(d)
		} else if d > 0 {
			t := time.NewTimer(d)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return err
			}
		}
		delay *= 2
		if p.Max > 0 && delay > p.Max {
			delay = p.Max
		}
	}
	return err
}
