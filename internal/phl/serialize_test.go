package phl

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fannr/internal/binio"
	"fannr/internal/graph"
)

func TestSerializeRoundTrip(t *testing.T) {
	g := randomGraph(t, 300, 50)
	ix, err := Build(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	ix2, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if ix2.Entries() != ix.Entries() {
		t.Fatalf("entries %d != %d after round trip", ix2.Entries(), ix.Entries())
	}
	rng := rand.New(rand.NewSource(51))
	for i := 0; i < 200; i++ {
		u := graph.NodeID(rng.Intn(g.NumNodes()))
		v := graph.NodeID(rng.Intn(g.NumNodes()))
		if a, b := ix.Dist(u, v), ix2.Dist(u, v); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("Dist(%d,%d) differs after round trip: %v vs %v", u, v, a, b)
		}
	}
}

// TestLoadMmap exercises the zero-copy path end to end: Save to a file,
// Load with and without mmap, and require bit-identical answers from
// both — including the Batcher scatter path, which is the consumer the
// rank/hub range audits protect.
func TestLoadMmap(t *testing.T) {
	g := randomGraph(t, 300, 54)
	built, err := Build(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "nw.phl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := built.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		opts LoadOptions
	}{
		{"heap", LoadOptions{Mmap: false}},
		{"mmap", LoadOptions{Mmap: true}},
		{"mmap-verified", LoadOptions{Mmap: true, Verify: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ix, err := Load(path, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer ix.Close()
			if ix.Entries() != built.Entries() {
				t.Fatalf("entries %d != %d", ix.Entries(), built.Entries())
			}
			if tc.opts.Mmap && !ix.Mapped() {
				t.Fatal("mmap load did not map") // unix CI; fallback platforms would skip
			}
			if ix.Mapped() {
				if ix.MappedBytes() == 0 {
					t.Fatal("mapped index reports 0 mapped bytes")
				}
				if ix.MemoryBytes() >= built.MemoryBytes() {
					t.Fatalf("mapped index reports %d heap bytes, heap twin %d — slabs double-counted",
						ix.MemoryBytes(), built.MemoryBytes())
				}
			} else if ix.MappedBytes() != 0 {
				t.Fatal("heap index reports mapped bytes")
			}
			rng := rand.New(rand.NewSource(7))
			b := ix.NewBatcher()
			wantB := built.NewBatcher()
			targets := make([]graph.NodeID, 8)
			got := make([]float64, 8)
			want := make([]float64, 8)
			for i := 0; i < 100; i++ {
				u := graph.NodeID(rng.Intn(g.NumNodes()))
				v := graph.NodeID(rng.Intn(g.NumNodes()))
				if a, bb := built.Dist(u, v), ix.Dist(u, v); math.Float64bits(a) != math.Float64bits(bb) {
					t.Fatalf("Dist(%d,%d): %v vs %v", u, v, a, bb)
				}
				for j := range targets {
					targets[j] = graph.NodeID(rng.Intn(g.NumNodes()))
				}
				b.DistBatch(u, targets, got)
				wantB.DistBatch(u, targets, want)
				for j := range targets {
					if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
						t.Fatalf("DistBatch(%d -> %d): %v vs %v", u, targets[j], got[j], want[j])
					}
				}
				// The bound path reads the same (possibly mapped) slabs.
				b.BindTargets(targets)
				b.DistBound(u, got)
				for j := range targets {
					if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
						t.Fatalf("DistBound(%d -> %d): %v vs %v", u, targets[j], got[j], want[j])
					}
				}
			}
		})
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("not an index"))); err == nil {
		t.Fatal("garbage accepted")
	}
	g := randomGraph(t, 50, 52)
	ix, err := Build(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// Truncations at various points must all fail cleanly.
	data := buf.Bytes()
	for _, cut := range []int{len(magic), len(magic) + 4, len(data) / 2, len(data) - 1} {
		if _, err := Read(bytes.NewReader(data[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

// TestReadDetectsBitRot flips single bits across the v4 stream. Every
// flip must either be rejected (metadata by the table CRC, payloads by
// the section CRCs, structure by the content audits) or — only for bytes
// in the dead padding between sections, which no loader ever reads —
// yield an index that answers queries identically to the original.
func TestReadDetectsBitRot(t *testing.T) {
	g := randomGraph(t, 50, 53)
	ix, err := Build(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	n := g.NumNodes()
	for i := len(magic); i < len(data); i += 13 {
		rotted := append([]byte(nil), data...)
		rotted[i] ^= 0x04
		got, err := Read(bytes.NewReader(rotted))
		if err != nil {
			continue
		}
		// Accepted: must be indistinguishable from the original.
		for u := 0; u < n; u += 7 {
			for v := 0; v < n; v += 11 {
				a, b := ix.Dist(int32(u), int32(v)), got.Dist(int32(u), int32(v))
				if math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("bit flip at offset %d accepted and changed Dist(%d,%d): %v vs %v", i, u, v, a, b)
				}
			}
		}
	}
}

// TestReadOldVersionsGetRebuildHint table-tests the operator experience
// for every historical format fed to this reader: the error must name
// the found and wanted versions and point at fannr-index.
func TestReadOldVersionsGetRebuildHint(t *testing.T) {
	for _, tc := range []struct {
		name  string
		magic string
		found int
	}{
		{"v1", "FANNRPHL1\n", 1},
		{"v2", "FANNRPHL2\n", 2},
		{"v3", "FANNRPHL3\n", 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stream := append([]byte(tc.magic), bytes.Repeat([]byte{0}, 64)...)
			_, err := Read(bytes.NewReader(stream))
			if err == nil {
				t.Fatal("old version accepted")
			}
			var ve *binio.FormatVersionError
			if !errors.As(err, &ve) {
				t.Fatalf("err = %v, want FormatVersionError", err)
			}
			if ve.Found != tc.found || ve.Want != 4 {
				t.Fatalf("err names v%d->v%d, want v%d->v4", ve.Found, ve.Want, tc.found)
			}
			if msg := err.Error(); !strings.Contains(msg, "fannr-index") || strings.Contains(msg, " -in") {
				t.Fatalf("error %q does not tell the operator to rebuild with fannr-index", err)
			}
			// Same contract through the file loader.
			path := filepath.Join(t.TempDir(), "old.phl")
			if err := os.WriteFile(path, stream, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := Load(path, LoadOptions{Mmap: true}); !errors.As(err, &ve) || ve.Found != tc.found || ve.Want != 4 {
				t.Fatalf("Load err = %v, want FormatVersionError v%d->v4", err, tc.found)
			}
		})
	}
	// Garbage (plain mismatch) must NOT claim version skew.
	if _, err := Read(bytes.NewReader([]byte("GARBAGE890GARBAGE"))); err == nil {
		t.Fatal("garbage accepted")
	} else if ve := new(binio.FormatVersionError); errors.As(err, &ve) {
		t.Fatalf("garbage classified as version skew: %v", err)
	}
}

// TestReadRejectsForgedContents hand-forges CRC-valid files whose values
// are out of range — the corruption class checksums cannot catch — and
// requires a descriptive load-time rejection instead of a query-time
// panic in Batcher's scatter table.
func TestReadRejectsForgedContents(t *testing.T) {
	g := randomGraph(t, 60, 56)
	build := func() *Index {
		ix, err := Build(g, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return ix
	}
	save := func(ix *Index) []byte {
		var buf bytes.Buffer
		if err := ix.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	cases := []struct {
		name    string
		mutate  func(ix *Index)
		wantErr string
	}{
		{"rank-too-large", func(ix *Index) { ix.rank[3] = int32(ix.n) }, "rank"},
		{"rank-negative", func(ix *Index) { ix.rank[0] = -1 }, "rank"},
		{"hub-too-large", func(ix *Index) { ix.hubSlab[1] = int32(ix.n) + 7 }, "hub"},
		{"hub-negative", func(ix *Index) { ix.hubSlab[0] = -2 }, "hub"},
		{"off-decreasing", func(ix *Index) {
			ix.off[1], ix.off[2] = ix.off[2]+1, ix.off[1]
		}, "offset"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ix := build()
			tc.mutate(ix)
			data := save(ix) // Save re-seals CRCs over the forged values
			_, err := Read(bytes.NewReader(data))
			if err == nil {
				t.Fatal("forged contents accepted")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err %q does not mention %q", err, tc.wantErr)
			}
			// And via the mmap loader. The O(n) audits (rank, offsets)
			// run on every load path; the O(slab) hub scan is deferred on
			// fast mapped loads by design — Verify restores it. Pin both
			// halves of that trust model.
			path := filepath.Join(t.TempDir(), "forged.phl")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := Load(path, LoadOptions{Mmap: true, Verify: true}); err == nil {
				t.Fatal("forged contents accepted by verified mmap Load")
			}
			fast, err := Load(path, LoadOptions{Mmap: true})
			if strings.HasPrefix(tc.name, "hub") {
				// Slab contents are trusted on the fast path; the file must
				// still open so a beyond-RAM index never pays a full scan.
				if err != nil {
					t.Fatalf("fast mmap Load rejected a slab-only forgery: %v", err)
				}
				fast.Close()
			} else if err == nil {
				t.Fatal("forged contents accepted by fast mmap Load")
			}
		})
	}
	// The same forgeries behind a v3 tag: there is no v3 reader, so the
	// file must be refused on its version, before any forged value is
	// trusted, on both the bytes and the file entry points.
	for _, tc := range cases {
		if tc.name == "off-decreasing" {
			continue // v3 stored lengths, not offsets
		}
		t.Run("v3-"+tc.name, func(t *testing.T) {
			ix := build()
			tc.mutate(ix)
			data := save(ix)
			v3 := append([]byte("FANNRPHL3\n"), data[len(magic):]...)
			var ve *binio.FormatVersionError
			if _, err := Read(bytes.NewReader(v3)); !errors.As(err, &ve) || ve.Found != 3 || ve.Want != 4 {
				t.Fatalf("Read err = %v, want FormatVersionError v3->v4", err)
			}
			path := filepath.Join(t.TempDir(), "forged-v3.phl")
			if err := os.WriteFile(path, v3, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := Load(path, LoadOptions{Mmap: true}); !errors.As(err, &ve) || ve.Found != 3 {
				t.Fatalf("Load err = %v, want FormatVersionError v3->v4", err)
			}
		})
	}
}
