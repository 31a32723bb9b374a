package gtree

import (
	"fmt"
	"io"

	"fannr/internal/binio"
	"fannr/internal/graph"
	"fannr/internal/sp"
)

// KNN returns the k nearest objects to src in ascending network-distance
// order (fewer when the reachable object set is smaller), appended to
// dst: the Start/Next search run to k objects, which tests compare
// against Dijkstra.
func (q *Querier) KNN(src graph.NodeID, objs *ObjectSet, k int, dst []sp.Neighbor) []sp.Neighbor {
	q.Start(src, objs)
	for n := 0; n < k; {
		o, d, ok := q.Next()
		if !ok {
			break
		}
		if o >= 0 {
			dst = append(dst, sp.Neighbor{Node: o, Dist: d})
			n++
		}
	}
	return dst
}

// Read deserializes a v4 tree from a stream onto the heap and
// reattaches it to g, with the checks of a heap Load: the tests' way to
// feed the decoder bytes that never touched a file.
func Read(r io.Reader, g *graph.Graph) (*Tree, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("gtree: reading stream: %w", err)
	}
	sf, err := binio.ParseSections(data, magic)
	if err != nil {
		return nil, fmt.Errorf("gtree: %w", err)
	}
	if err := sf.VerifySections(); err != nil {
		return nil, fmt.Errorf("gtree: verifying index: %w", err)
	}
	return fromSections(sf, g, true)
}
