package gtree

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"fannr/internal/graph"
	"fannr/internal/sp"
)

// Golden hashes of the float bits of seeded Dist and KNN answers,
// recorded at the commit before the query kernels moved from hash-map to
// positional X addressing. The kernels may be reorganised freely as long
// as they add the same operand pairs: any change in association or in
// which border entries are copied rather than relaxed shows up here as a
// different last bit.
const (
	goldenDist = 0x3fc1b542e2a658fe
	goldenKNN  = 0xfe3e59ca1c8ea15a
)

func TestGoldenDistKNNBits(t *testing.T) {
	g := roadNetwork(t, 2000, 41)
	tr, err := Build(g, Options{Fanout: 4, MaxLeafSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	q := tr.NewQuerier()
	rng := rand.New(rand.NewSource(42))
	n := g.NumNodes()
	var word [8]byte

	h := fnv.New64a()
	for i := 0; i < 2000; i++ {
		u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
		binary.LittleEndian.PutUint64(word[:], math.Float64bits(q.Dist(u, v)))
		h.Write(word[:])
	}
	if got := h.Sum64(); got != goldenDist {
		t.Errorf("Dist bits hash = %#x, want %#x", got, uint64(goldenDist))
	}

	h = fnv.New64a()
	var buf []sp.Neighbor
	for i := 0; i < 200; i++ {
		objs := make([]graph.NodeID, 1+rng.Intn(96))
		for j := range objs {
			objs[j] = graph.NodeID(rng.Intn(n))
		}
		buf = q.KNN(graph.NodeID(rng.Intn(n)), tr.NewObjectSet(objs), 1+rng.Intn(len(objs)), buf[:0])
		for _, nb := range buf {
			binary.LittleEndian.PutUint64(word[:], math.Float64bits(nb.Dist))
			h.Write(word[:])
		}
	}
	if got := h.Sum64(); got != goldenKNN {
		t.Errorf("KNN bits hash = %#x, want %#x", got, uint64(goldenKNN))
	}
}
