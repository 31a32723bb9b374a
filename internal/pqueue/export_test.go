package pqueue

// Key is a test hook: no search reads a queued id's key.

// Key returns the current key of id and whether id is queued.
func (h *IndexedHeap) Key(id int32) (float64, bool) {
	if s := &h.ids[id]; s.stamp == h.epoch && s.pos >= 0 {
		return s.key, true
	}
	return 0, false
}
