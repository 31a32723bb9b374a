package binio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

const testMagic = "FANNRTST4\n"

// buildTestFile writes a three-section file with a two-value header.
func buildTestFile(t testing.TB) ([]byte, []int32, []int64, []float64) {
	t.Helper()
	i32s := []int32{1, -2, 3, 1 << 30}
	i64s := []int64{42, -9, 1 << 60}
	f64s := []float64{0, 1.5, -2.25, 1e300}
	sw := NewSectionWriter(testMagic)
	sw.HeaderI64(7)
	sw.HeaderI64(-13)
	sw.I32Section(i32s)
	sw.I64Section(i64s)
	sw.F64Section(f64s)
	var buf bytes.Buffer
	if _, err := sw.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), i32s, i64s, f64s
}

func TestSectionRoundTrip(t *testing.T) {
	data, i32s, i64s, f64s := buildTestFile(t)
	sf, err := ParseSections(data, testMagic)
	if err != nil {
		t.Fatal(err)
	}
	if err := sf.VerifySections(); err != nil {
		t.Fatal(err)
	}
	h := sf.Header()
	if a, b := h.I64(), h.I64(); a != 7 || b != -13 {
		t.Fatalf("header = %d,%d want 7,-13", a, b)
	}
	if err := h.Err(); err != nil {
		t.Fatal(err)
	}
	if sf.NumSections() != 3 {
		t.Fatalf("NumSections = %d", sf.NumSections())
	}
	g32, err := sf.I32(0)
	if err != nil {
		t.Fatal(err)
	}
	g64, err := sf.I64(1)
	if err != nil {
		t.Fatal(err)
	}
	gf, err := sf.F64(2)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range i32s {
		if g32[i] != v {
			t.Fatalf("i32[%d] = %d want %d", i, g32[i], v)
		}
	}
	for i, v := range i64s {
		if g64[i] != v {
			t.Fatalf("i64[%d] = %d want %d", i, g64[i], v)
		}
	}
	for i, v := range f64s {
		if gf[i] != v {
			t.Fatalf("f64[%d] = %v want %v", i, gf[i], v)
		}
	}
	// Kind mismatches are type errors, not silent reinterpretation.
	if _, err := sf.F64(0); err == nil {
		t.Fatal("reading an i32 section as f64 succeeded")
	}
	if _, err := sf.I32(5); err == nil {
		t.Fatal("out-of-range section index succeeded")
	}
}

// TestSectionAlignment pins the layout contract: every section offset is
// 64-byte aligned, so an mmap'd (page-aligned) file always yields
// 8-byte-aligned float64/int64 views.
func TestSectionAlignment(t *testing.T) {
	data, _, _, _ := buildTestFile(t)
	sf, err := ParseSections(data, testMagic)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range sf.sections {
		if s.off%Align != 0 {
			t.Fatalf("section %d at offset %d, not %d-aligned", i, s.off, Align)
		}
	}
}

// TestSectionZeroCopy confirms the views alias the backing bytes on
// little-endian hosts (the performance contract mmap loading is built
// on). Skipped on exotic platforms where the decode fallback kicks in.
func TestSectionZeroCopy(t *testing.T) {
	if !hostLittleEndian() {
		t.Skip("big-endian host uses the decode fallback")
	}
	data, _, _, _ := buildTestFile(t)
	// readFileAligned guarantees 8-byte alignment; in-memory test data
	// from bytes.Buffer may not be, so re-stage it aligned.
	aligned := alignedCopy(data)
	sf, err := ParseSections(aligned, testMagic)
	if err != nil {
		t.Fatal(err)
	}
	g32, err := sf.I32(0)
	if err != nil {
		t.Fatal(err)
	}
	base := uintptr(unsafe.Pointer(&aligned[0]))
	p := uintptr(unsafe.Pointer(&g32[0]))
	if p < base || p >= base+uintptr(len(aligned)) {
		t.Fatal("I32 view does not alias the backing buffer (copied?)")
	}
}

func alignedCopy(data []byte) []byte {
	words := make([]uint64, (len(data)+7)/8)
	buf := unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), len(words)*8)[:len(data)]
	copy(buf, data)
	return buf
}

// TestSectionTableCorruptions drives the parser through the forged-table
// matrix: truncations, misaligned offsets, overlapping sections, lengths
// past EOF, unknown kinds, and a flipped table CRC. Every one must fail
// with a descriptive error, never a panic or a silent accept.
func TestSectionTableCorruptions(t *testing.T) {
	data, _, _, _ := buildTestFile(t)
	// Table layout: magic(10) + headerLen(8) + header(16) + count(8) = 42,
	// then 3 × 24-byte entries.
	tableStart := len(testMagic) + 8 + 16 + 8
	entry := func(i int) int { return tableStart + i*tableEntrySize }

	corrupt := func(name string, mutate func(d []byte) []byte) {
		t.Run(name, func(t *testing.T) {
			d := mutate(append([]byte(nil), data...))
			if _, err := ParseSections(d, testMagic); err == nil {
				t.Fatal("corrupted table accepted")
			}
		})
	}
	corrupt("empty", func(d []byte) []byte { return nil })
	corrupt("magic-only", func(d []byte) []byte { return d[:len(testMagic)] })
	corrupt("truncated-table", func(d []byte) []byte { return d[:entry(2)+5] })
	corrupt("truncated-section", func(d []byte) []byte { return d[:len(d)-16] })
	corrupt("misaligned-offset", func(d []byte) []byte {
		off := binary.LittleEndian.Uint64(d[entry(1):])
		binary.LittleEndian.PutUint64(d[entry(1):], off+4)
		return d
	})
	corrupt("overlapping-sections", func(d []byte) []byte {
		// Point section 1 at section 0's offset.
		off0 := binary.LittleEndian.Uint64(d[entry(0):])
		binary.LittleEndian.PutUint64(d[entry(1):], off0)
		return d
	})
	corrupt("section-before-table", func(d []byte) []byte {
		binary.LittleEndian.PutUint64(d[entry(0):], 0)
		return d
	})
	corrupt("forged-length", func(d []byte) []byte {
		binary.LittleEndian.PutUint64(d[entry(2)+8:], 1<<40)
		return d
	})
	corrupt("negative-length", func(d []byte) []byte {
		binary.LittleEndian.PutUint64(d[entry(0)+8:], ^uint64(0))
		return d
	})
	corrupt("unknown-kind", func(d []byte) []byte {
		binary.LittleEndian.PutUint32(d[entry(0)+16:], 99)
		return d
	})
	corrupt("forged-section-count", func(d []byte) []byte {
		binary.LittleEndian.PutUint64(d[tableStart-8:], 1<<20)
		return d
	})
	corrupt("forged-header-len", func(d []byte) []byte {
		binary.LittleEndian.PutUint64(d[len(testMagic):], 1<<30)
		return d
	})
	corrupt("table-crc-flip", func(d []byte) []byte {
		d[entry(3)] ^= 0x01 // the CRC sits right after the last entry
		return d
	})
	// Metadata bit-rot anywhere in the sealed region must be caught by
	// the table CRC even when the forged value parses cleanly.
	corrupt("header-bit-rot", func(d []byte) []byte {
		d[len(testMagic)+8] ^= 0x80
		return d
	})
}

// TestSectionPayloadBitRot flips bits across the payload region;
// VerifySections must reject every one even though ParseSections (which
// only seals metadata) accepts them.
func TestSectionPayloadBitRot(t *testing.T) {
	data, _, _, _ := buildTestFile(t)
	sf, err := ParseSections(data, testMagic)
	if err != nil {
		t.Fatal(err)
	}
	payloadStart := int(sf.sections[0].off)
	for i := payloadStart; i < len(data); i += 7 {
		// Skip the zero padding between sections: it is not covered by any
		// section CRC (and never read by a loader).
		inSection := false
		for _, s := range sf.sections {
			if int64(i) >= s.off && int64(i) < s.off+s.count*int64(kindSize(s.kind)) {
				inSection = true
				break
			}
		}
		if !inSection {
			continue
		}
		rotted := append([]byte(nil), data...)
		rotted[i] ^= 0x10
		rsf, err := ParseSections(rotted, testMagic)
		if err != nil {
			t.Fatalf("metadata parse failed for payload flip at %d: %v", i, err)
		}
		if err := rsf.VerifySections(); err == nil {
			t.Fatalf("payload bit flip at offset %d not caught", i)
		}
	}
}

func TestOpenSectionFileMmapAndHeap(t *testing.T) {
	data, i32s, _, _ := buildTestFile(t)
	path := filepath.Join(t.TempDir(), "idx")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, mapped := range []bool{true, false} {
		sf, err := OpenSectionFile(path, testMagic, mapped)
		if err != nil {
			t.Fatalf("mapped=%v: %v", mapped, err)
		}
		if mapped && mmapSupported && !sf.Mapped() {
			t.Fatal("mmap requested and supported but file not mapped")
		}
		if !mapped && sf.Mapped() {
			t.Fatal("heap open reported as mapped")
		}
		got, err := sf.I32(0)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range i32s {
			if got[i] != v {
				t.Fatalf("mapped=%v i32[%d] = %d want %d", mapped, i, got[i], v)
			}
		}
		if err := sf.VerifySections(); err != nil {
			t.Fatal(err)
		}
		if err := sf.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := OpenSectionFile(filepath.Join(t.TempDir(), "absent"), testMagic, true); err == nil {
		t.Fatal("opening a missing file succeeded")
	}
}

// TestMagicVersionError drives every historical magic through a newer
// reader and a newer file through an older one: same-family version
// skew must surface as *FormatVersionError naming both versions and the
// rebuild tool, while unrelated bytes stay a plain bad-magic error.
func TestMagicVersionError(t *testing.T) {
	cases := []struct {
		name      string
		got, want string
		found     int
		wantVer   int
	}{
		{"phl-v1-to-v4", "FANNRPHL1\n", "FANNRPHL4\n", 1, 4},
		{"phl-v2-to-v4", "FANNRPHL2\n", "FANNRPHL4\n", 2, 4},
		{"phl-v3-to-v4", "FANNRPHL3\n", "FANNRPHL4\n", 3, 4},
		{"phl-v4-to-v3", "FANNRPHL4\n", "FANNRPHL3\n", 4, 3},
		{"gt-v2-to-v4", "FANNRGT2\n", "FANNRGT4\n", 2, 4},
		{"gt-v3-to-v4", "FANNRGT3\n", "FANNRGT4\n", 3, 4},
		{"ch-v1-to-v2", "FANNRCH1\n", "FANNRCH2\n", 1, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseSections([]byte(tc.got+"padpadpad"), tc.want)
			var ve *FormatVersionError
			if !errors.As(err, &ve) {
				t.Fatalf("err = %v, want FormatVersionError", err)
			}
			if ve.Found != tc.found || ve.Want != tc.wantVer {
				t.Fatalf("versions = found v%d want v%d; expected found v%d want v%d",
					ve.Found, ve.Want, tc.found, tc.wantVer)
			}
			if !strings.Contains(err.Error(), "fannr-index") {
				t.Fatalf("error %q does not name fannr-index", err)
			}
		})
	}
	t.Run("unrelated-garbage", func(t *testing.T) {
		_, err := ParseSections([]byte("GARBAGE890"), "FANNRPHL4\n")
		var ve *FormatVersionError
		if errors.As(err, &ve) {
			t.Fatalf("garbage classified as version skew: %v", err)
		}
		if err == nil {
			t.Fatal("garbage accepted")
		}
	})
}

// TestStickyErrors pins the header cursor's contract: the first overrun
// is remembered, and every later read returns 0 without replacing it.
func TestStickyErrors(t *testing.T) {
	data, _, _, _ := buildTestFile(t)
	sf, err := ParseSections(data, testMagic)
	if err != nil {
		t.Fatal(err)
	}
	h := sf.Header()
	h.I64()
	h.I64()
	if v := h.I64(); v != 0 || h.Err() == nil {
		t.Fatalf("read past a two-value header = %d, err %v", v, h.Err())
	}
	first := h.Err()
	if v := h.I64(); v != 0 || h.Err() != first {
		t.Fatal("header error not sticky")
	}
}

// Property: arbitrary slices round-trip bit-exactly through a section
// file, including empty ones and every float64 bit pattern.
func TestSliceRoundTripProperty(t *testing.T) {
	f := func(is []int32, ls []int64, fs []float64) bool {
		sw := NewSectionWriter(testMagic)
		sw.I32Section(is)
		sw.I64Section(ls)
		sw.F64Section(fs)
		var buf bytes.Buffer
		if _, err := sw.WriteTo(&buf); err != nil {
			return false
		}
		sf, err := ParseSections(alignedCopy(buf.Bytes()), testMagic)
		if err != nil || sf.VerifySections() != nil {
			return false
		}
		gi, err1 := sf.I32(0)
		gl, err2 := sf.I64(1)
		gf, err3 := sf.F64(2)
		if err1 != nil || err2 != nil || err3 != nil || !slices.Equal(gi, is) || !slices.Equal(gl, ls) || len(gf) != len(fs) {
			return false
		}
		for i := range fs {
			if math.Float64bits(gf[i]) != math.Float64bits(fs[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
