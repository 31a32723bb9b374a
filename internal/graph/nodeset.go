package graph

// NodeSet is a stamped membership set over node ids with O(1) Reset,
// designed to be reused across thousands of queries without re-allocation.
// Each member may carry a small integer payload (e.g., its index within a
// query set).
type NodeSet struct {
	stamp   []uint32
	payload []int32
	epoch   uint32
}

// NewNodeSet returns a set over ids in [0, n).
func NewNodeSet(n int) *NodeSet {
	return &NodeSet{
		stamp:   make([]uint32, n),
		payload: make([]int32, n),
		epoch:   1,
	}
}

// Cap reports the id-space size the set was built for.
func (s *NodeSet) Cap() int { return len(s.stamp) }

// Reset empties the set in O(1).
func (s *NodeSet) Reset() {
	s.epoch++
	if s.epoch == 0 {
		for i := range s.stamp {
			s.stamp[i] = 0
		}
		s.epoch = 1
	}
}

// Add inserts id with payload value; re-adding overwrites the payload.
func (s *NodeSet) Add(id NodeID, value int32) {
	s.stamp[id] = s.epoch
	s.payload[id] = value
}

// Contains reports whether id is a member.
func (s *NodeSet) Contains(id NodeID) bool { return s.stamp[id] == s.epoch }

// Value returns the payload of id and whether id is a member.
func (s *NodeSet) Value(id NodeID) (int32, bool) {
	if s.stamp[id] != s.epoch {
		return 0, false
	}
	return s.payload[id], true
}

// AddAll inserts each id with its slice index as payload.
func (s *NodeSet) AddAll(ids []NodeID) {
	for i, id := range ids {
		s.Add(id, int32(i))
	}
}
