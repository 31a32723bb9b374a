package phl

import (
	"bytes"
	"testing"

	"fannr/internal/resil"
)

// fileChaosSeeds derives load-path corruption variants (torn writes,
// crash truncations) of one encoded index via the resil corrupters.
func fileChaosSeeds(f *testing.F, seed []byte) [][]byte {
	f.Helper()
	return resil.ChaosCorpus(seed, 7)
}

// FuzzRead hardens the index deserializer: arbitrary bytes must never
// panic or allocate absurd buffers, and accepted inputs must produce an
// index whose queries — including the Batcher scatter and bucket paths,
// which index rank-sized tables by label contents — do not crash.
func FuzzRead(f *testing.F) {
	// Seed with a real serialized index, the same bytes under the old v3
	// tag (which must fail as version skew), and corruptions of each.
	g := randomGraph(f, 40, 1)
	ix, err := Build(g, Options{})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte(magic))
	f.Add([]byte("FANNRPHL3\n"))
	f.Add([]byte{})
	relabelled := append([]byte("FANNRPHL3\n"), valid[len(magic):]...)
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
		ix, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Whatever was accepted must be internally usable.
		n := ix.n
		if n == 0 {
			t.Fatal("accepted empty index")
		}
		_ = ix.Dist(0, int32(n-1))
		_ = ix.Entries()
		// The scatter table is the consumer the content audits protect: an
		// accepted index must batch without an index-out-of-range panic.
		b := ix.NewBatcher()
		out := make([]float64, 2)
		b.DistBatch(0, []int32{0, int32(n - 1)}, out)
		b.BindTargets([]int32{0, int32(n - 1)})
		b.DistBound(int32(n-1), out)
		b.DistBoundResume(int32(n-1), b.DistBoundPrefix(int32(n-1), 4, out, make([]float64, 2)), out)
	})
}
