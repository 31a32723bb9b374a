package lifecycle

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fannr/internal/resil"
)

// fakeResource counts closes so tests can prove exactly-once,
// last-reader-drops semantics.
type fakeResource struct {
	id     int
	closed atomic.Int32
}

func (f *fakeResource) Close() error {
	f.closed.Add(1)
	return nil
}

func newLoader() (func() (Resource, error), *[]*fakeResource) {
	var mu sync.Mutex
	made := &[]*fakeResource{}
	load := func() (Resource, error) {
		mu.Lock()
		defer mu.Unlock()
		r := &fakeResource{id: len(*made)}
		*made = append(*made, r)
		return r, nil
	}
	return load, made
}

func TestHolderAcquireReloadRelease(t *testing.T) {
	load, made := newLoader()
	h, err := New("ix", load, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	pin, err := h.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	if pin.Generation() != 1 {
		t.Fatalf("generation = %d, want 1", pin.Generation())
	}
	if pin.Value() != (*made)[0] {
		t.Fatal("pin does not hold the loaded resource")
	}

	// Swap while the pin is outstanding: old generation must stay open.
	if err := h.Reload(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := (*made)[0].closed.Load(); got != 0 {
		t.Fatalf("old resource closed %d times with a pin outstanding", got)
	}
	pin2, err := h.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	if pin2.Generation() != 2 || pin2.Value() != (*made)[1] {
		t.Fatalf("post-reload pin: gen %d resource %v", pin2.Generation(), pin2.Value())
	}

	// Last release of the detached generation closes it, exactly once.
	pin.Release()
	pin.Release() // idempotent
	if got := (*made)[0].closed.Load(); got != 1 {
		t.Fatalf("old resource closed %d times, want 1", got)
	}
	// Live generation stays open after its pins drop: holder still owns it.
	pin2.Release()
	if got := (*made)[1].closed.Load(); got != 0 {
		t.Fatalf("live resource closed %d times, want 0", got)
	}
	h.Close()
	if got := (*made)[1].closed.Load(); got != 1 {
		t.Fatalf("after holder close, live resource closed %d times, want 1", got)
	}
}

// TestHolderFixed: a fixed holder serves the caller's resource as
// generation 0, refuses to reload it, and closes it like any other
// generation once the holder and the last pin let go.
func TestHolderFixed(t *testing.T) {
	res := &fakeResource{}
	h := Fixed("ix", res)
	pin, err := h.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	if pin.Generation() != 0 || pin.Value() != res {
		t.Fatalf("fixed pin: gen %d resource %v", pin.Generation(), pin.Value())
	}
	if err := h.Reload(context.Background()); err == nil {
		t.Fatal("Reload of a fixed holder succeeded")
	}
	if st := h.State(); st.Generation != 0 || !st.Live || st.Reloads != 0 || st.ReloadFailures != 0 {
		t.Fatalf("fixed state = %+v", st)
	}
	h.Close()
	if got := res.closed.Load(); got != 0 {
		t.Fatalf("fixed resource closed %d times with a pin outstanding", got)
	}
	pin.Release()
	if got := res.closed.Load(); got != 1 {
		t.Fatalf("fixed resource closed %d times after the last release, want 1", got)
	}
}

func TestHolderQuarantine(t *testing.T) {
	load, made := newLoader()
	h, err := New("ix", load, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	pin, _ := h.Acquire()
	if !h.Quarantine("torn page") {
		t.Fatal("first quarantine should evict the live generation")
	}
	if h.Quarantine("again") {
		t.Fatal("second quarantine should be a no-op")
	}
	// The faulted mapping must NOT close while a request still reads it.
	if got := (*made)[0].closed.Load(); got != 0 {
		t.Fatalf("quarantined resource closed %d times with a pin outstanding", got)
	}
	if _, err := h.Acquire(); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("Acquire during quarantine = %v, want ErrUnavailable", err)
	}
	st := h.State()
	if !st.Quarantined || st.Reason != "torn page" || st.Faults != 1 || st.Live {
		t.Fatalf("state = %+v", st)
	}
	pin.Release()
	if got := (*made)[0].closed.Load(); got != 1 {
		t.Fatalf("quarantined resource closed %d times after last release, want 1", got)
	}

	// A successful reload clears the quarantine.
	if err := h.Reload(context.Background()); err != nil {
		t.Fatal(err)
	}
	st = h.State()
	if st.Quarantined || !st.Live || st.Generation != 2 || st.Reloads != 1 {
		t.Fatalf("post-reload state = %+v", st)
	}
	if _, err := h.Acquire(); err != nil {
		t.Fatalf("Acquire after recovery: %v", err)
	}
}

func TestHolderFailedReloadKeepsCurrent(t *testing.T) {
	calls := 0
	good := &fakeResource{}
	load := func() (Resource, error) {
		calls++
		if calls == 1 {
			return good, nil
		}
		return nil, fmt.Errorf("torn write")
	}
	h, err := New("ix", load, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if err := h.Reload(context.Background()); err == nil {
		t.Fatal("reload of a broken file should fail")
	}
	pin, err := h.Acquire()
	if err != nil {
		t.Fatalf("good generation must survive a failed reload: %v", err)
	}
	if pin.Value() != good || pin.Generation() != 1 {
		t.Fatal("failed reload replaced the good generation")
	}
	pin.Release()
	st := h.State()
	if st.ReloadFailures != 1 || st.Reloads != 0 {
		t.Fatalf("state = %+v", st)
	}
}

func TestHolderReloadRetriesTransientErrors(t *testing.T) {
	gate := resil.TransientErrors(2)
	res := &fakeResource{}
	load := func() (Resource, error) {
		if err := gate(); err != nil {
			return nil, err
		}
		return res, nil
	}
	var slept []time.Duration
	_, err := New("ix", load, Options{Retry: resil.RetryPolicy{
		Attempts: 4,
		Base:     10 * time.Millisecond,
		Sleep:    func(d time.Duration) { slept = append(slept, d) },
	}})
	if err != nil {
		t.Fatalf("load should succeed once the EIO burst clears: %v", err)
	}
	// Two failures -> two backoff sleeps, doubling from Base.
	if len(slept) != 2 || slept[0] != 10*time.Millisecond || slept[1] != 20*time.Millisecond {
		t.Fatalf("backoff schedule = %v", slept)
	}
}

func TestHolderInitialLoadFailure(t *testing.T) {
	load := func() (Resource, error) { return nil, errors.New("no such file") }
	if _, err := New("ix", load, Options{Retry: resil.RetryPolicy{Attempts: 2, Sleep: func(time.Duration) {}}}); err == nil {
		t.Fatal("New should surface the initial load failure")
	}
}

func TestHolderConcurrentAcquireReload(t *testing.T) {
	load, made := newLoader()
	h, err := New("ix", load, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	const workers = 8
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				pin, err := h.Acquire()
				if err != nil {
					t.Error(err)
					return
				}
				r := pin.Value().(*fakeResource)
				if r.closed.Load() != 0 {
					t.Error("acquired a closed resource")
					pin.Release()
					return
				}
				pin.Release()
			}
		}()
	}
	for i := 0; i < 50; i++ {
		if err := h.Reload(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	h.Close()
	// Every generation ever loaded must close exactly once.
	for i, r := range *made {
		if got := r.closed.Load(); got != 1 {
			t.Fatalf("resource %d closed %d times, want 1", i, got)
		}
	}
}
