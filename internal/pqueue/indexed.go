package pqueue

// IndexedHeap is an addressable 4-ary min-heap over integer ids in
// [0, n). It supports DecreaseKey in O(log n) and constant-time Reset via
// epoch stamping, which makes it suitable for running many Dijkstra
// searches over the same graph without re-allocating.
type IndexedHeap struct {
	keys  []float64
	pos   []int32 // position of id in heap; valid only when stamp matches
	stamp []uint32
	epoch uint32
	heap  []int32
}

// NewIndexedHeap returns a heap able to hold ids in [0, n).
func NewIndexedHeap(n int) *IndexedHeap {
	return &IndexedHeap{
		keys:  make([]float64, n),
		pos:   make([]int32, n),
		stamp: make([]uint32, n),
		epoch: 1,
		heap:  make([]int32, 0, 64),
	}
}

// Reset empties the heap in O(1).
func (h *IndexedHeap) Reset() {
	h.epoch++
	h.heap = h.heap[:0]
	if h.epoch == 0 { // wrapped: clear stamps so stale entries cannot alias
		for i := range h.stamp {
			h.stamp[i] = 0
		}
		h.epoch = 1
	}
}

// Len reports the number of ids currently in the heap.
func (h *IndexedHeap) Len() int { return len(h.heap) }

// Key returns the current key of id and whether id is present.
func (h *IndexedHeap) Key(id int32) (float64, bool) {
	if h.stamp[id] != h.epoch || h.pos[id] < 0 {
		return 0, false
	}
	return h.keys[id], true
}

// Update inserts id with the given key, or decreases its key if id is
// already present with a larger key. It reports whether the heap changed.
func (h *IndexedHeap) Update(id int32, key float64) bool {
	if h.stamp[id] == h.epoch && h.pos[id] >= 0 {
		if key >= h.keys[id] {
			return false
		}
		h.keys[id] = key
		h.up(int(h.pos[id]))
		return true
	}
	h.stamp[id] = h.epoch
	h.keys[id] = key
	h.pos[id] = int32(len(h.heap))
	h.heap = append(h.heap, id)
	h.up(len(h.heap) - 1)
	return true
}

// Pop removes and returns the id with the minimum key.
// It must not be called on an empty heap.
func (h *IndexedHeap) Pop() (int32, float64) {
	id := h.heap[0]
	key := h.keys[id]
	last := len(h.heap) - 1
	moved := h.heap[last]
	h.heap[0] = moved
	h.pos[moved] = 0
	h.heap = h.heap[:last]
	h.pos[id] = -1
	if last > 0 {
		h.down(0)
	}
	return id, key
}

func (h *IndexedHeap) up(i int) {
	id := h.heap[i]
	key := h.keys[id]
	for i > 0 {
		parent := (i - 1) / 4
		pid := h.heap[parent]
		if h.keys[pid] <= key {
			break
		}
		h.heap[i] = pid
		h.pos[pid] = int32(i)
		i = parent
	}
	h.heap[i] = id
	h.pos[id] = int32(i)
}

func (h *IndexedHeap) down(i int) {
	id := h.heap[i]
	key := h.keys[id]
	n := len(h.heap)
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		minKey := h.keys[h.heap[first]]
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if k := h.keys[h.heap[c]]; k < minKey {
				min, minKey = c, k
			}
		}
		if minKey >= key {
			break
		}
		cid := h.heap[min]
		h.heap[i] = cid
		h.pos[cid] = int32(i)
		i = min
	}
	h.heap[i] = id
	h.pos[id] = int32(i)
}
