package pqueue

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestHeapOrdering(t *testing.T) {
	h := NewHeap[int](8)
	keys := []float64{5, 3, 8, 1, 9, 2, 7, 4, 6, 0}
	for i, k := range keys {
		h.Push(k, i)
	}
	if h.Len() != len(keys) {
		t.Fatalf("Len = %d, want %d", h.Len(), len(keys))
	}
	prev := -1.0
	for h.Len() > 0 {
		it := h.Pop()
		if it.Key < prev {
			t.Fatalf("pop out of order: %v after %v", it.Key, prev)
		}
		prev = it.Key
	}
}

func TestHeapMinMatchesPop(t *testing.T) {
	h := NewHeap[string](0)
	h.Push(2, "b")
	h.Push(1, "a")
	h.Push(3, "c")
	if got := h.Min(); got.Value != "a" {
		t.Fatalf("Min = %q, want a", got.Value)
	}
	if got := h.Pop(); got.Value != "a" || got.Key != 1 {
		t.Fatalf("Pop = %+v, want {1 a}", got)
	}
	if got := h.Min(); got.Value != "b" {
		t.Fatalf("Min after pop = %q, want b", got.Value)
	}
}

func TestHeapReset(t *testing.T) {
	h := NewHeap[int](4)
	h.Push(1, 1)
	h.Reset()
	if h.Len() != 0 {
		t.Fatalf("Len after Reset = %d, want 0", h.Len())
	}
	h.Push(9, 9)
	if got := h.Pop(); got.Value != 9 {
		t.Fatalf("Pop after Reset = %+v, want value 9", got)
	}
}

// Property: draining the heap yields the keys in sorted order.
func TestHeapSortsProperty(t *testing.T) {
	f := func(keys []float64) bool {
		h := NewHeap[int](len(keys))
		for i, k := range keys {
			if k != k { // skip NaN inputs: order undefined
				return true
			}
			h.Push(k, i)
		}
		got := make([]float64, 0, len(keys))
		for h.Len() > 0 {
			got = append(got, h.Pop().Key)
		}
		return sort.Float64sAreSorted(got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestIndexedHeapBasic(t *testing.T) {
	h := NewIndexedHeap(10)
	h.Update(3, 5)
	h.Update(7, 2)
	h.Update(1, 8)
	if !h.Update(1, 1) {
		t.Fatal("decrease of id 1 should report change")
	}
	if h.Update(3, 9) {
		t.Fatal("increase of id 3 should be ignored")
	}
	order := []int32{1, 7, 3}
	for _, want := range order {
		id, _ := h.Pop()
		if id != want {
			t.Fatalf("Pop = %d, want %d", id, want)
		}
	}
	if h.Len() != 0 {
		t.Fatalf("Len = %d, want 0", h.Len())
	}
}

func TestIndexedHeapKey(t *testing.T) {
	h := NewIndexedHeap(4)
	if _, ok := h.Key(2); ok {
		t.Fatal("Key of absent id should report !ok")
	}
	h.Update(2, 3.5)
	if k, ok := h.Key(2); !ok || k != 3.5 {
		t.Fatalf("Key(2) = (%v,%v), want (3.5,true)", k, ok)
	}
	h.Pop()
	if _, ok := h.Key(2); ok {
		t.Fatal("Key after Pop should report !ok")
	}
}

func TestIndexedHeapResetIsolation(t *testing.T) {
	h := NewIndexedHeap(8)
	h.Update(5, 1)
	h.Update(6, 2)
	h.Reset()
	if h.Len() != 0 {
		t.Fatalf("Len after Reset = %d, want 0", h.Len())
	}
	if _, ok := h.Key(5); ok {
		t.Fatal("stale key visible after Reset")
	}
	h.Update(6, 9)
	if id, key := h.Pop(); id != 6 || key != 9 {
		t.Fatalf("Pop = (%d,%v), want (6,9)", id, key)
	}
}

// Property: with random updates (inserts and decreases), draining yields
// each id exactly once with its minimum assigned key, in sorted key order.
func TestIndexedHeapProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const n = 64
		h := NewIndexedHeap(n)
		best := make(map[int32]float64)
		for i := 0; i < 300; i++ {
			id := int32(rng.Intn(n))
			key := rng.Float64() * 100
			h.Update(id, key)
			if old, ok := best[id]; !ok || key < old {
				best[id] = key
			}
		}
		prev := -1.0
		seen := make(map[int32]bool)
		for h.Len() > 0 {
			id, key := h.Pop()
			if key < prev || seen[id] || best[id] != key {
				return false
			}
			prev = key
			seen[id] = true
		}
		return len(seen) == len(best)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestIndexedHeapEpochWrap(t *testing.T) {
	h := NewIndexedHeap(4)
	h.Update(1, 1)
	h.Update(2, 0.5)
	h.Pop()              // 2 is labelled 0.5
	h.epoch = ^uint32(0) // force wrap on next Reset
	h.Reset()
	if _, ok := h.Key(1); ok {
		t.Fatal("stale key visible after epoch wrap")
	}
	if _, ok := h.Label(2); ok {
		t.Fatal("stale label visible after epoch wrap")
	}
	// A stale label must not refuse a larger key either.
	if !h.Update(2, 3) {
		t.Fatal("Update(2, 3) refused after epoch wrap")
	}
	h.Update(1, 2)
	if id, key := h.Pop(); id != 1 || key != 2 {
		t.Fatalf("Pop = (%d,%v), want (1,2)", id, key)
	}
	if d, ok := h.Label(1); !ok || d != 2 {
		t.Fatalf("Label(1) after wrap = (%v,%v), want (2,true)", d, ok)
	}
	if _, ok := h.Label(2); ok {
		t.Fatal("queued id 2 reads as labelled")
	}
}

// TestIndexedHeapLabels holds the heap to the contract every search's
// relaxation relies on: a popped id keeps its key as its label, which
// refuses any equal or larger key, a smaller key re-queues it, and
// Reset forgets every label.
func TestIndexedHeapLabels(t *testing.T) {
	h := NewIndexedHeap(8)
	h.Update(3, 2.5)
	h.Update(4, 7)
	if _, ok := h.Label(3); ok {
		t.Fatal("queued id 3 reads as labelled")
	}
	if id, _ := h.Pop(); id != 3 {
		t.Fatalf("Pop = %d, want 3", id)
	}
	if d, ok := h.Label(3); !ok || d != 2.5 {
		t.Fatalf("Label(3) = (%v,%v), want (2.5,true)", d, ok)
	}
	for _, key := range []float64{2.5, 9} {
		if h.Update(3, key) {
			t.Fatalf("Update(3, %v) accepted over label 2.5", key)
		}
		if h.Len() != 1 {
			t.Fatalf("Update(3, %v) re-queued a popped id: Len = %d", key, h.Len())
		}
	}
	if d, ok := h.Label(3); !ok || d != 2.5 {
		t.Fatalf("Label(3) after refusals = (%v,%v), want (2.5,true)", d, ok)
	}
	if !h.Update(3, 1) {
		t.Fatal("Update(3, 1) refused below label 2.5")
	}
	if h.Len() != 2 {
		t.Fatalf("Len after re-queue = %d, want 2", h.Len())
	}
	if _, ok := h.Label(3); ok {
		t.Fatal("re-queued id 3 still reads as labelled")
	}
	if id, key := h.Pop(); id != 3 || key != 1 {
		t.Fatalf("Pop = (%d,%v), want (3,1)", id, key)
	}
	if d, ok := h.Label(3); !ok || d != 1 {
		t.Fatalf("Label(3) = (%v,%v), want (1,true)", d, ok)
	}
	h.Reset()
	for id := int32(0); id < 8; id++ {
		if _, ok := h.Label(id); ok {
			t.Fatalf("Label(%d) survives Reset", id)
		}
	}
	if !h.Update(3, 5) {
		t.Fatal("Update(3, 5) refused after Reset")
	}
}

func BenchmarkIndexedHeapDijkstraPattern(b *testing.B) {
	// Simulates the push/decrease/pop mix of a Dijkstra search.
	const n = 4096
	h := NewIndexedHeap(n)
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Reset()
		h.Update(0, 0)
		for h.Len() > 0 {
			id, key := h.Pop()
			for j := 0; j < 3; j++ {
				next := (id*31 + int32(j)*17 + 1) % n
				if next > id { // expand "outward" only so the loop terminates
					h.Update(next, key+rng.Float64())
				}
			}
		}
	}
}
