// Package pqueue provides fannr's two priority queues: a generic binary
// min-heap for arbitrary payloads (best-first searches, and the k-FANN_R
// incumbent queue keyed by −distance), and an indexed (addressable) 4-ary
// min-heap over dense integer ids with O(log n) DecreaseKey and O(1)
// reset between queries. The indexed heap is also the label table of
// every Dijkstra-style search (sp's Dijkstra and A*, the hub-label build,
// G-tree's build and within-leaf searches): a popped id keeps its key
// until Reset, so no search keeps a second copy of its keys.
package pqueue

// Item is a payload ordered by a float64 key.
type Item[T any] struct {
	Key   float64
	Value T
}

// Heap is a binary min-heap of Items. The zero value is an empty heap.
type Heap[T any] struct {
	items []Item[T]
}

// NewHeap returns a heap with capacity pre-allocated for n items.
func NewHeap[T any](n int) *Heap[T] {
	return &Heap[T]{items: make([]Item[T], 0, n)}
}

// Len reports the number of items in the heap.
func (h *Heap[T]) Len() int { return len(h.items) }

// Reset empties the heap, retaining its storage.
func (h *Heap[T]) Reset() { h.items = h.items[:0] }

// Push inserts value with the given key.
func (h *Heap[T]) Push(key float64, value T) {
	h.items = append(h.items, Item[T]{Key: key, Value: value})
	h.up(len(h.items) - 1)
}

// Min returns the minimum item without removing it.
// It must not be called on an empty heap.
func (h *Heap[T]) Min() Item[T] { return h.items[0] }

// Pop removes and returns the minimum item.
// It must not be called on an empty heap.
func (h *Heap[T]) Pop() Item[T] {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	if last > 0 {
		h.down(0)
	}
	return top
}

func (h *Heap[T]) up(i int) {
	item := h.items[i]
	for i > 0 {
		parent := (i - 1) / 2
		if h.items[parent].Key <= item.Key {
			break
		}
		h.items[i] = h.items[parent]
		i = parent
	}
	h.items[i] = item
}

func (h *Heap[T]) down(i int) {
	item := h.items[i]
	n := len(h.items)
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		min := left
		if right := left + 1; right < n && h.items[right].Key < h.items[left].Key {
			min = right
		}
		if h.items[min].Key >= item.Key {
			break
		}
		h.items[i] = h.items[min]
		i = min
	}
	h.items[i] = item
}
