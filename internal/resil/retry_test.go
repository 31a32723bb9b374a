package resil

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"fannr/internal/core"
)

func TestRetryBackoffSchedule(t *testing.T) {
	var slept []time.Duration
	p := RetryPolicy{
		Attempts: 5,
		Base:     100 * time.Millisecond,
		Max:      300 * time.Millisecond,
		Sleep:    func(d time.Duration) { slept = append(slept, d) },
	}
	calls := 0
	err := p.Do(context.Background(), func() error {
		calls++
		return errors.New("still broken")
	})
	if err == nil || err.Error() != "still broken" {
		t.Fatalf("err = %v", err)
	}
	if calls != 5 {
		t.Fatalf("op ran %d times, want 5", calls)
	}
	// Doubling from Base, capped at Max, no sleep after the last attempt.
	want := []time.Duration{100, 200, 300, 300}
	if len(slept) != len(want) {
		t.Fatalf("slept %v, want 4 delays", slept)
	}
	for i, w := range want {
		if slept[i] != w*time.Millisecond {
			t.Fatalf("delay %d = %v, want %v", i, slept[i], w*time.Millisecond)
		}
	}
}

func TestRetryJitterDeterministic(t *testing.T) {
	run := func() []time.Duration {
		var slept []time.Duration
		p := RetryPolicy{
			Attempts: 4,
			Base:     time.Second,
			Jitter:   0.5,
			Seed:     99,
			Sleep:    func(d time.Duration) { slept = append(slept, d) },
		}
		_ = p.Do(context.Background(), func() error { return errors.New("x") })
		return slept
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("jitter streams diverge at delay %d: %v vs %v", i, a[i], b[i])
		}
		base := time.Second << i
		lo, hi := base/2, base+base/2
		if a[i] < lo || a[i] > hi {
			t.Fatalf("delay %d = %v outside jitter band [%v, %v]", i, a[i], lo, hi)
		}
	}
}

func TestRetryStopsOnSuccess(t *testing.T) {
	gate := TransientErrors(2)
	calls := 0
	p := RetryPolicy{Attempts: 10, Sleep: func(time.Duration) {}}
	err := p.Do(context.Background(), func() error {
		calls++
		return gate()
	})
	if err != nil || calls != 3 {
		t.Fatalf("err = %v after %d calls, want success on call 3", err, calls)
	}
}

func TestRetryHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	p := RetryPolicy{Attempts: 100, Sleep: func(time.Duration) { cancel() }}
	err := p.Do(ctx, func() error {
		calls++
		return errors.New("broken")
	})
	if err == nil {
		t.Fatal("want the op error back")
	}
	if calls != 1 {
		t.Fatalf("op ran %d times after cancel, want 1", calls)
	}
}

func TestTransientErrorsGate(t *testing.T) {
	gate := TransientErrors(2)
	for i := 0; i < 2; i++ {
		if err := gate(); !errors.Is(err, ErrTransientIO) {
			t.Fatalf("call %d = %v, want ErrTransientIO", i, err)
		}
	}
	for i := 0; i < 3; i++ {
		if err := gate(); err != nil {
			t.Fatalf("call after burst = %v, want nil", err)
		}
	}
}

func TestFileChaosCorrupters(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "index.bin")
	orig := make([]byte, 4096)
	for i := range orig {
		orig[i] = 0xAB
	}
	if err := os.WriteFile(path, orig, 0o644); err != nil {
		t.Fatal(err)
	}

	// TornWrite keeps the length but garbles the tail, deterministically.
	if err := TornWrite(path, 0.25, 7); err != nil {
		t.Fatal(err)
	}
	torn, _ := os.ReadFile(path)
	if len(torn) != len(orig) {
		t.Fatalf("torn write changed length %d -> %d", len(orig), len(torn))
	}
	head := torn[:3072]
	for i, b := range head {
		if b != 0xAB {
			t.Fatalf("torn write touched byte %d outside the tail", i)
		}
	}
	diff := 0
	for _, b := range torn[3072:] {
		if b != 0xAB {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("torn write left the tail intact")
	}
	if err := os.WriteFile(path, orig, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := TornWrite(path, 0.25, 7); err != nil {
		t.Fatal(err)
	}
	again, _ := os.ReadFile(path)
	if string(again) != string(torn) {
		t.Fatal("same seed must produce the same torn bytes")
	}

	// TruncateTail keeps the requested fraction.
	if err := TruncateTail(path, 0.5); err != nil {
		t.Fatal(err)
	}
	fi, _ := os.Stat(path)
	if fi.Size() != 2048 {
		t.Fatalf("truncated size %d, want 2048", fi.Size())
	}

	// Bad fractions are rejected.
	if err := TornWrite(path, 0, 1); err == nil {
		t.Fatal("TornWrite should reject frac=0")
	}
	if err := TruncateTail(path, 1); err == nil {
		t.Fatal("TruncateTail should reject frac=1")
	}
}

// TestChaosLatencyCancellation pins the satellite fix: injected latency
// must not block past the request's cancellation. A bound done channel
// wakes the sleep immediately; without a binding the sleep still runs
// its full course (the legacy path).
func TestChaosLatencyCancellation(t *testing.T) {
	in := NewInjector(ChaosConfig{Latency: 30 * time.Second})
	gp := in.Wrap(chaosInner(t))
	in.Arm()

	done := make(chan struct{})
	close(done)
	ce := gp.(*ChaosEngine)
	ce.BindCancel(done)
	start := time.Now()
	gp.Dist(1, 2, core.Max)
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("canceled Dist blocked %v under injected latency", took)
	}

	// Unbinding restores plain sleeps (pool hygiene: no stale channels).
	ce.BindCancel(nil)
	if ce.done != nil {
		t.Fatal("BindCancel(nil) must detach the channel")
	}
}

// TestRetryFirstTrySuccessAllocatesNothing: the jitter rng (a 4.9 KB
// lagged-Fibonacci state to seed) is created when a jittered delay is
// first drawn, not on entry — the shard coordinator runs every RPC
// through Do and almost none of them retries. The schedule a retrying
// call draws from a given Seed is TestRetryJitterDeterministic's.
func TestRetryFirstTrySuccessAllocatesNothing(t *testing.T) {
	p := RetryPolicy{Attempts: 2, Base: 10 * time.Millisecond, Max: 100 * time.Millisecond, Jitter: 0.2}
	ctx := context.Background()
	ok := func() error { return nil }
	if allocs := testing.AllocsPerRun(100, func() {
		if err := p.Do(ctx, ok); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("Do with a first-try success allocates %v objects, want 0", allocs)
	}
}
