package gtree

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"fannr/internal/graph"
	"fannr/internal/sp"
)

// fileChaosSeeds derives load-path corruption variants (torn writes,
// crash truncations) of one encoded tree. It mirrors
// resil.ChaosCorpus, which this in-package test cannot import: resil
// wraps core engines and core depends on gtree itself.
func fileChaosSeeds(f *testing.F, seed []byte) [][]byte {
	f.Helper()
	if len(seed) == 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(7))
	torn := func(frac float64) []byte {
		out := append([]byte(nil), seed...)
		n := int(float64(len(out)) * frac)
		if n < 1 {
			n = 1
		}
		tail := out[len(out)-n:]
		for i := range tail {
			tail[i] = byte(rng.Intn(256))
		}
		return out
	}
	return [][]byte{
		torn(0.5),
		torn(1),
		seed[:len(seed)*3/4],
		seed[:len(seed)/4],
		seed[:1],
	}
}

// FuzzRead hardens the tree deserializer: arbitrary bytes must never
// panic or allocate absurd buffers, and accepted inputs must produce a
// tree whose queries do not crash. Mirrors internal/phl's FuzzRead.
func FuzzRead(f *testing.F) {
	// Seed with a real serialized tree, the same bytes under the old v3
	// tag (which must fail as version skew), and corruptions of each.
	g := roadNetwork(f, 120, 95)
	tr, err := Build(g, Options{MaxLeafSize: 16})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte(magic))
	f.Add([]byte("FANNRGT3\n"))
	f.Add([]byte{})
	relabelled := append([]byte("FANNRGT3\n"), valid[len(magic):]...)
	for _, seed := range [][]byte{valid, relabelled} {
		corrupted := append([]byte(nil), seed...)
		for i := 16; i < len(corrupted) && i < 128; i += 7 {
			corrupted[i] ^= 0xff
		}
		f.Add(seed)
		f.Add(corrupted)
		// The load-path chaos corpus: a write torn partway through and a
		// crash-truncated tail, the two shapes a reload races in production.
		for _, corrupt := range fileChaosSeeds(f, seed) {
			f.Add(corrupt)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Read(bytes.NewReader(data), g)
		if err != nil {
			return
		}
		// Whatever was accepted must be internally usable, including the
		// batch path whose scratch tables are sized from slab contents.
		q := tr.NewQuerier()
		_ = q.Dist(0, graph.NodeID(g.NumNodes()-1))
		out := make([]float64, 2)
		q.DistBatch(0, []graph.NodeID{0, graph.NodeID(g.NumNodes() - 1)}, out)
		_ = tr.Stats()
	})
}

// FuzzKNNMatchesDijkstra derives a road network, a tree shape, an object
// set, a source and k from the fuzz input and holds KNN and DistBatch to
// Dijkstra, and KNNBelow to KNN on either side of the k-th distance. The
// seeds replay under plain `go test`.
func FuzzKNNMatchesDijkstra(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(7), uint8(3))
	f.Add(int64(2), uint8(0x25), uint8(31), uint8(31))  // fanout 7, tau 12
	f.Add(int64(3), uint8(0xf6), uint8(1), uint8(0))    // fanout 8, tau 64
	f.Add(int64(4), uint8(0x08), uint8(200), uint8(90)) // binary, tau 4, Q with repeats
	f.Fuzz(func(t *testing.T, seed int64, shape, nQ, kk uint8) {
		g, err := graph.Generate(graph.GenConfig{Nodes: 40 + int(uint64(seed)%360), Seed: seed, Name: "fz"})
		if err != nil {
			t.Skip(err)
		}
		tr, err := Build(g, Options{Fanout: 2 + int(shape&7), MaxLeafSize: 4 + 4*int(shape>>4)})
		if err != nil {
			t.Fatal(err)
		}
		n := g.NumNodes()
		rng := rand.New(rand.NewSource(seed))
		// Q may repeat vertices; distinct is what Dijkstra's target set holds.
		Q := make([]graph.NodeID, 1+int(nQ))
		var distinct []graph.NodeID
		targets := graph.NewNodeSet(n)
		for i := range Q {
			Q[i] = graph.NodeID(rng.Intn(n))
			if !targets.Contains(Q[i]) {
				targets.Add(Q[i], 0)
				distinct = append(distinct, Q[i])
			}
		}
		src := graph.NodeID(rng.Intn(n))
		q := tr.NewQuerier()
		ref := sp.NewDijkstra(g)
		batch := make([]float64, len(Q))
		q.DistBatch(src, Q, batch)
		for i, v := range Q {
			if want := ref.Dist(src, v); math.Abs(batch[i]-want) > 1e-6 {
				t.Fatalf("DistBatch(%d -> %d) = %v, want %v", src, v, batch[i], want)
			}
		}
		k := 1 + int(kk)%len(distinct)
		got := q.KNN(src, tr.NewObjectSet(distinct), k, nil)
		want := ref.KNNAmong(src, targets, k, nil)
		if len(got) != len(want) {
			t.Fatalf("KNN(%d, k=%d) returned %d neighbours, want %d", src, k, len(got), len(want))
		}
		for i := range got {
			if math.Abs(got[i].Dist-want[i].Dist) > 1e-6 {
				t.Fatalf("KNN(%d, k=%d)[%d] = %v, want %v", src, k, i, got[i].Dist, want[i].Dist)
			}
		}
		// KNNBelow at a limit just past the k-th distance returns KNN's
		// distances bit for bit; at the k-th itself, fewer than k.
		if len(got) == k {
			kth := got[k-1].Dist
			os := tr.NewObjectSet(distinct)
			below := q.KNNBelow(src, os, k, math.Nextafter(kth, math.Inf(1)), nil)
			if len(below) != k {
				t.Fatalf("KNNBelow(%d, k=%d) just past the k-th returned %d neighbours", src, k, len(below))
			}
			for i := range below {
				if math.Float64bits(below[i].Dist) != math.Float64bits(got[i].Dist) {
					t.Fatalf("KNNBelow(%d, k=%d)[%d] = %v, KNN %v", src, k, i, below[i].Dist, got[i].Dist)
				}
			}
			if at := q.KNNBelow(src, os, k, kth, nil); len(at) >= k {
				t.Fatalf("KNNBelow(%d, k=%d) at the k-th distance %v returned %d neighbours", src, k, kth, len(at))
			}
		}
	})
}
