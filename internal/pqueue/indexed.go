package pqueue

// IndexedHeap is an addressable 4-ary min-heap over integer ids in
// [0, n), and the label table of the search that drives it: an id keeps
// its key after Pop until Reset, so a Dijkstra-style search reads a
// settled node's distance back with Label and needs no distance array of
// its own. Update refuses a key no smaller than the id's label, queued or
// popped, and Reset is O(1) by epoch stamping, so many searches over one
// graph run without re-allocating.
type IndexedHeap struct {
	ids   []slot // indexed by id
	epoch uint32
	heap  []int32
}

// slot is one id's entry: the fields Update's refusal reads share a
// cache line.
type slot struct {
	key   float64 // label of id; valid only when stamp matches
	stamp uint32
	pos   int32 // position of id in heap, -1 once popped
}

// NewIndexedHeap returns a heap able to hold ids in [0, n).
func NewIndexedHeap(n int) *IndexedHeap {
	return &IndexedHeap{ids: make([]slot, n), epoch: 1, heap: make([]int32, 0, 64)}
}

// Reset empties the heap and forgets every label in O(1).
func (h *IndexedHeap) Reset() {
	h.epoch++
	h.heap = h.heap[:0]
	if h.epoch == 0 { // wrapped: clear stamps so stale entries cannot alias
		for i := range h.ids {
			h.ids[i].stamp = 0
		}
		h.epoch = 1
	}
}

// Len reports the number of ids currently in the heap.
func (h *IndexedHeap) Len() int { return len(h.heap) }

// Label returns the key id was popped with since the last Reset, and
// whether it has been popped.
func (h *IndexedHeap) Label(id int32) (float64, bool) {
	if s := &h.ids[id]; s.stamp == h.epoch && s.pos < 0 {
		return s.key, true
	}
	return 0, false
}

// Update offers key for id. It refuses (and reports false) a key no
// smaller than one id already holds since the last Reset, whether id is
// still queued or already popped; otherwise it inserts id, lowers its
// key, or re-queues a popped id, and reports true. The refusal is the
// common case of every edge relaxation and stays small enough to inline.
func (h *IndexedHeap) Update(id int32, key float64) bool {
	return (h.ids[id].stamp != h.epoch || key < h.ids[id].key) && h.set(id, key)
}

// set gives id the key Update accepted. It always reports true, which
// keeps Update one expression within the inlining budget.
func (h *IndexedHeap) set(id int32, key float64) bool {
	s := &h.ids[id]
	s.key = key
	if s.stamp == h.epoch && s.pos >= 0 {
		h.up(int(s.pos))
		return true
	}
	s.stamp = h.epoch
	s.pos = int32(len(h.heap))
	h.heap = append(h.heap, id)
	h.up(len(h.heap) - 1)
	return true
}

// Pop removes and returns the id with the minimum key.
// It must not be called on an empty heap.
func (h *IndexedHeap) Pop() (int32, float64) {
	id := h.heap[0]
	key := h.ids[id].key
	last := len(h.heap) - 1
	moved := h.heap[last]
	h.heap[0] = moved
	h.ids[moved].pos = 0
	h.heap = h.heap[:last]
	h.ids[id].pos = -1
	if last > 0 {
		h.down(0)
	}
	return id, key
}

func (h *IndexedHeap) up(i int) {
	id := h.heap[i]
	key := h.ids[id].key
	for i > 0 {
		parent := (i - 1) / 4
		pid := h.heap[parent]
		if h.ids[pid].key <= key {
			break
		}
		h.heap[i] = pid
		h.ids[pid].pos = int32(i)
		i = parent
	}
	h.heap[i] = id
	h.ids[id].pos = int32(i)
}

func (h *IndexedHeap) down(i int) {
	id := h.heap[i]
	key := h.ids[id].key
	n := len(h.heap)
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		minKey := h.ids[h.heap[first]].key
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if k := h.ids[h.heap[c]].key; k < minKey {
				min, minKey = c, k
			}
		}
		if minKey >= key {
			break
		}
		cid := h.heap[min]
		h.heap[i] = cid
		h.ids[cid].pos = int32(i)
		i = min
	}
	h.heap[i] = id
	h.ids[id].pos = int32(i)
}
