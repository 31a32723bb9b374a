package gtree

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
	"fannr/internal/sp"
)

func TestSerializeRoundTrip(t *testing.T) {
	g := roadNetwork(t, 700, 90)
	tr, err := Build(g, Options{MaxLeafSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	tr2, err := Read(&buf, g)
	if err != nil {
		t.Fatal(err)
	}
	q1, q2 := tr.NewQuerier(), tr2.NewQuerier()
	rng := rand.New(rand.NewSource(91))
	for i := 0; i < 200; i++ {
		u := graph.NodeID(rng.Intn(g.NumNodes()))
		v := graph.NodeID(rng.Intn(g.NumNodes()))
		if a, b := q1.Dist(u, v), q2.Dist(u, v); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("Dist(%d,%d) differs after round trip: %v vs %v", u, v, a, b)
		}
	}
	// kNN still works on the loaded tree.
	objs := tr2.NewObjectSet([]graph.NodeID{3, 100, 400, 600})
	targets := graph.NewNodeSet(g.NumNodes())
	targets.AddAll([]graph.NodeID{3, 100, 400, 600})
	got := q2.KNN(50, objs, 2, nil)
	want := sp.NewDijkstra(g).KNNAmong(50, targets, 2, nil)
	for i := range want {
		if math.Abs(got[i].Dist-want[i].Dist) > 1e-9 {
			t.Fatalf("loaded-tree KNN dist %d = %v, want %v", i, got[i].Dist, want[i].Dist)
		}
	}
}

// TestLoadMmap exercises the zero-copy path end to end: Save to a file,
// Load with and without mmap, and require bit-identical answers from
// both — Dist, DistBatch, and KNN all run over PROT_READ pages, so this
// test doubles as the immutability audit (a stray write into the slabs
// would segfault here, not silently corrupt).
func TestLoadMmap(t *testing.T) {
	g := roadNetwork(t, 700, 96)
	built, err := Build(g, Options{MaxLeafSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "nw.gtree")
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
			tr, err := Load(path, g, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer tr.Close()
			if tc.opts.Mmap && !tr.Mapped() {
				t.Fatal("mmap load did not map")
			}
			if tr.Mapped() {
				if tr.MappedBytes() == 0 {
					t.Fatal("mapped tree reports 0 mapped bytes")
				}
				if tr.Stats().MemoryBytes >= built.Stats().MemoryBytes {
					t.Fatalf("mapped tree reports %d heap bytes, heap twin %d — slabs double-counted",
						tr.Stats().MemoryBytes, built.Stats().MemoryBytes)
				}
			} else if tr.MappedBytes() != 0 {
				t.Fatal("heap tree reports mapped bytes")
			}
			qb, ql := built.NewQuerier(), tr.NewQuerier()
			rng := rand.New(rand.NewSource(17))
			targets := make([]graph.NodeID, 8)
			got := make([]float64, 8)
			want := make([]float64, 8)
			for i := 0; i < 100; i++ {
				u := graph.NodeID(rng.Intn(g.NumNodes()))
				v := graph.NodeID(rng.Intn(g.NumNodes()))
				if a, b := qb.Dist(u, v), ql.Dist(u, v); math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("Dist(%d,%d): %v vs %v", u, v, a, b)
				}
				for j := range targets {
					targets[j] = graph.NodeID(rng.Intn(g.NumNodes()))
				}
				qb.DistBatch(u, targets, want)
				ql.DistBatch(u, targets, got)
				for j := range targets {
					if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
						t.Fatalf("DistBatch(%d -> %d): %v vs %v", u, targets[j], got[j], want[j])
					}
				}
			}
			objs := tr.NewObjectSet([]graph.NodeID{3, 100, 400, 600})
			wantObjs := built.NewObjectSet([]graph.NodeID{3, 100, 400, 600})
			gotK := ql.KNN(50, objs, 3, nil)
			wantK := qb.KNN(50, wantObjs, 3, nil)
			for i := range wantK {
				if gotK[i] != wantK[i] {
					t.Fatalf("KNN[%d] = %+v, want %+v", i, gotK[i], wantK[i])
				}
			}
		})
	}
}

func TestReadRejectsGarbageAndWrongGraph(t *testing.T) {
	g := roadNetwork(t, 400, 92)
	if _, err := Read(bytes.NewReader([]byte("nope")), g); err == nil {
		t.Fatal("garbage accepted")
	}
	tr, err := Build(g, Options{MaxLeafSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	other := roadNetwork(t, 900, 93)
	if _, err := Read(bytes.NewReader(buf.Bytes()), other); err == nil {
		t.Fatal("index accepted against a different graph")
	}
	data := buf.Bytes()
	for _, cut := range []int{6, len(data) / 2, len(data) - 1} {
		if _, err := Read(bytes.NewReader(data[:cut]), g); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

// TestReadDetectsBitRot flips single bits across the v4 stream. Every
// flip must either be rejected (metadata by the table CRC, payloads by
// the section CRCs, structure by the content audits) or — only for bytes
// in the dead padding between sections, which no loader ever reads —
// yield a tree that answers queries identically to the original.
func TestReadDetectsBitRot(t *testing.T) {
	g := roadNetwork(t, 200, 94)
	tr, err := Build(g, Options{MaxLeafSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	q := tr.NewQuerier()
	for i := len(magic); i < len(data); i += 101 {
		rotted := append([]byte(nil), data...)
		rotted[i] ^= 0x04
		got, err := Read(bytes.NewReader(rotted), g)
		if err != nil {
			continue
		}
		qr := got.NewQuerier()
		for u := 0; u < g.NumNodes(); u += 31 {
			for v := 0; v < g.NumNodes(); v += 37 {
				a, b := q.Dist(int32(u), int32(v)), qr.Dist(int32(u), int32(v))
				if math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("bit flip at offset %d accepted and changed Dist(%d,%d): %v vs %v", i, u, v, a, b)
				}
			}
		}
	}
}

// TestReadOldVersionsGetRebuildHint mirrors phl's table test: historical
// magics, the retired v3 stream included, must fail with the
// found/wanted versions and a rebuild hint.
func TestReadOldVersionsGetRebuildHint(t *testing.T) {
	g := roadNetwork(t, 120, 98)
	for _, tc := range []struct {
		name  string
		magic string
		found int
	}{
		{"v1", "FANNRGT1\n", 1},
		{"v2", "FANNRGT2\n", 2},
		{"v3", "FANNRGT3\n", 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stream := append([]byte(tc.magic), bytes.Repeat([]byte{0}, 64)...)
			_, err := Read(bytes.NewReader(stream), g)
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
			path := filepath.Join(t.TempDir(), "old.gtree")
			if err := os.WriteFile(path, stream, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := Load(path, g, LoadOptions{Mmap: true}); !errors.As(err, &ve) || ve.Found != tc.found || ve.Want != 4 {
				t.Fatalf("Load err = %v, want FormatVersionError v%d->v4", err, tc.found)
			}
		})
	}
}

// TestReadRejectsForgedContents hand-forges CRC-valid trees whose islab
// contents are out of range — bad CSR offsets, foreign vertices, dangling
// child pointers — and requires a descriptive load-time rejection instead
// of a query-time panic.
func TestReadRejectsForgedContents(t *testing.T) {
	g := roadNetwork(t, 200, 99)
	cases := []struct {
		name    string
		mutate  func(tr *Tree)
		wantErr string
	}{
		{"vertex-out-of-graph", func(tr *Tree) {
			leaf := tr.someLeaf()
			leaf.verts[0] = int32(g.NumNodes())
		}, "vertex"},
		{"border-negative", func(tr *Tree) {
			leaf := tr.someLeaf()
			leaf.borders[0] = -3
		}, ""},
		{"csr-offset-decreasing", func(tr *Tree) {
			leaf := tr.someLeaf()
			if len(leaf.ladjStart) > 2 {
				leaf.ladjStart[1] = leaf.ladjStart[len(leaf.ladjStart)-1] + 5
			}
		}, "CSR"},
		{"csr-target-out-of-leaf", func(tr *Tree) {
			leaf := tr.someLeaf()
			if len(leaf.ladjNode) > 0 {
				leaf.ladjNode[0] = int32(len(leaf.verts)) + 9
			}
		}, "CSR"},
		{"child-dangling", func(tr *Tree) {
			root := &tr.nodes[0]
			if len(root.children) > 0 {
				root.children[0] = int32(len(tr.nodes)) + 4
			}
		}, "child"},
		{"leafOf-not-a-leaf", func(tr *Tree) {
			tr.leafOf[0] = 0 // the root is internal on any multi-leaf tree
		}, "leaf"},
		{"posInLeaf-out-of-range", func(tr *Tree) {
			tr.posInLeaf[0] = 1 << 20
		}, "position"},
		{"leafSeq-outside-interval", func(tr *Tree) {
			tr.leafSeq[0] = int32(g.NumNodes())
		}, ""},
		{"borderX-out-of-X", func(tr *Tree) {
			for i := range tr.nodes {
				if n := &tr.nodes[i]; !n.isLeaf() && len(n.borderX) > 0 {
					n.borderX[0] = int32(len(n.X)) + 2
					return
				}
			}
		}, "borderX"},
		// The invariants positional addressing rests on. With per-node lookup maps a
		// forged X survived the audit and a map miss read index 0 — a wrong
		// distance, not an error.
		{"X-entry-swapped", func(tr *Tree) {
			n := tr.someWideInternal()
			n.X[0], n.X[1] = n.X[1], n.X[0]
			for j, bx := range n.borderX { // keep borderX pointing at the same vertices
				if bx < 2 {
					n.borderX[j] = 1 - bx
				}
			}
		}, "children's borders"},
		{"borderX-wrong-entry", func(tr *Tree) {
			for i := range tr.nodes {
				if n := &tr.nodes[i]; !n.isLeaf() && len(n.borderX) > 1 {
					n.borderX[0] = n.borderX[1]
					return
				}
			}
			panic("no internal node with two borders")
		}, "borderX"},
		{"X-shorter-than-children-borders", func(tr *Tree) {
			n := tr.someWideInternal()
			nx := len(n.X) - 1
			n.X, n.mat = n.X[:nx], n.mat[:nx*nx]
			tr.flatten() // repack so metadata and slabs agree on the forged lengths
		}, "children's borders total"},
		{"borderX-shorter-than-borders", func(tr *Tree) {
			for i := range tr.nodes {
				if n := &tr.nodes[i]; !n.isLeaf() && len(n.borderX) > 0 {
					n.borderX = n.borderX[:len(n.borderX)-1]
					tr.flatten()
					return
				}
			}
			panic("no internal node with borders")
		}, "borderX entries"},
	}
	// Shape forgeries must also fail the fast mmap load, which skips the
	// content audit: they are what keeps xoff+j inside the parent matrix.
	fastRejects := map[string]bool{
		"child-dangling":                  true,
		"X-shorter-than-children-borders": true,
		"borderX-shorter-than-borders":    true,
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr, err := Build(g, Options{MaxLeafSize: 32})
			if err != nil {
				t.Fatal(err)
			}
			tc.mutate(tr)
			var buf bytes.Buffer
			if err := tr.Save(&buf); err != nil { // Save re-seals CRCs over the forged values
				t.Fatal(err)
			}
			_, err = Read(bytes.NewReader(buf.Bytes()), g)
			if err == nil {
				t.Fatal("forged contents accepted")
			}
			if tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err %q does not mention %q", err, tc.wantErr)
			}
			if fastRejects[tc.name] {
				path := filepath.Join(t.TempDir(), "forged.gtree")
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				if loaded, err := Load(path, g, LoadOptions{Mmap: true}); err == nil {
					loaded.Close()
					t.Fatal("forged shape accepted by the unaudited mmap load")
				}
			}
		})
	}
}

// someWideInternal returns a non-root internal node with at least two X
// entries and two borders, for forgery tests.
func (t *Tree) someWideInternal() *node {
	for i := 1; i < len(t.nodes); i++ {
		if n := &t.nodes[i]; !n.isLeaf() && len(n.X) >= 2 && len(n.borderX) >= 2 {
			return n
		}
	}
	panic("no wide internal node")
}

// someLeaf returns a leaf with at least two vertices, for forgery tests.
func (t *Tree) someLeaf() *node {
	for i := range t.nodes {
		if n := &t.nodes[i]; n.isLeaf() && len(n.verts) >= 2 {
			return n
		}
	}
	panic("no leaf")
}
