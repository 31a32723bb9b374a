package qcache

import "sync"

// numShards spreads lock contention; must stay a power of two for
// shardOf's mask.
const numShards = 16

// entry is one LRU node. Entries form a doubly linked list per shard
// with head = most recently used.
type entry struct {
	key        cacheKey
	prev, next *entry
	size       int64
	val        any
}

// shard is one lock domain: a map for lookup plus an intrusive LRU list
// for eviction order.
type shard struct {
	mu         sync.Mutex
	entries    map[cacheKey]*entry
	head, tail *entry
}

func (s *shard) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (s *shard) pushFront(e *entry) {
	e.prev, e.next = nil, s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

func (s *shard) moveToFront(e *entry) {
	if s.head == e {
		return
	}
	s.unlink(e)
	s.pushFront(e)
}

// removeLocked drops e from the shard; the caller holds s.mu and
// accounts the cache-level gauges.
func (s *shard) removeLocked(e *entry) {
	s.unlink(e)
	delete(s.entries, e.key)
}

// get returns the value under k, refreshing recency.
func (c *Cache) get(k cacheKey) (any, bool) {
	s := &c.shards[shardOf(k)]
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.entries[k]
	if e == nil {
		return nil, false
	}
	s.moveToFront(e)
	return e.val, true
}

// put inserts or replaces the value under k. keep, when non-nil, is
// consulted under the shard lock with the existing value: returning true
// aborts the write (the resident value is better — e.g. a longer
// neighbor list racing with a shorter one).
func (c *Cache) put(k cacheKey, val any, size int64, keep func(old any) bool) {
	s := &c.shards[shardOf(k)]
	s.mu.Lock()
	defer s.mu.Unlock()
	if e := s.entries[k]; e != nil {
		if keep != nil && keep(e.val) {
			s.moveToFront(e)
			return
		}
		c.bytes.Add(size - e.size)
		e.val, e.size = val, size
		s.moveToFront(e)
		return
	}
	e := &entry{key: k, val: val, size: size}
	s.entries[k] = e
	s.pushFront(e)
	c.entries.Add(1)
	c.bytes.Add(size)
	for len(s.entries) > c.perShard {
		victim := s.tail
		s.removeLocked(victim)
		c.entries.Add(-1)
		c.bytes.Add(-victim.size)
		c.evictions.Add(1)
	}
}

// Purge drops every entry and forgets every bound Q — the manual
// invalidation hook. The indexes a
// cache fronts are immutable for the life of the process, so purging is
// only needed when an operator swaps datasets in tests or tooling.
func (c *Cache) Purge() {
	if c == nil {
		return
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n := int64(len(s.entries))
		var freed int64
		for _, e := range s.entries {
			freed += e.size
		}
		s.entries = make(map[cacheKey]*entry)
		s.head, s.tail = nil, nil
		s.mu.Unlock()
		c.entries.Add(-n)
		c.bytes.Add(-freed)
	}
	for i := range c.bound {
		c.bound[i].Store(0)
	}
}
