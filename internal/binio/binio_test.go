package binio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRoundTrip writes the edge values of every element kind — extreme
// integers, infinities, negative zero, a NaN payload and an empty
// section — and requires each to come back bit-exactly.
func TestRoundTrip(t *testing.T) {
	nan := math.Float64frombits(0x7ff8_0000_dead_beef)
	sw := NewSectionWriter(testMagic)
	sw.HeaderI64(math.MinInt64)
	sw.HeaderI64(math.MaxInt64)
	sw.I32Section([]int32{math.MinInt32, -2, math.MaxInt32})
	sw.I32Section(nil)
	sw.I64Section([]int64{math.MinInt64, 0, math.MaxInt64})
	sw.F64Section([]float64{math.Pi, math.Inf(1), math.Inf(-1), math.Copysign(0, -1), nan})
	var buf bytes.Buffer
	n, err := sw.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}

	sf, err := ParseSections(alignedCopy(buf.Bytes()), testMagic)
	if err != nil {
		t.Fatal(err)
	}
	if err := sf.VerifySections(); err != nil {
		t.Fatal(err)
	}
	h := sf.Header()
	if a, b := h.I64(), h.I64(); a != math.MinInt64 || b != math.MaxInt64 || h.Err() != nil {
		t.Fatalf("header = %d,%d (err %v)", a, b, h.Err())
	}
	is, err := sf.I32(0)
	if err != nil || len(is) != 3 || is[0] != math.MinInt32 || is[1] != -2 || is[2] != math.MaxInt32 {
		t.Fatalf("I32 = %v (err %v)", is, err)
	}
	if empty, err := sf.I32(1); err != nil || len(empty) != 0 {
		t.Fatalf("empty I32 = %v (err %v)", empty, err)
	}
	ls, err := sf.I64(2)
	if err != nil || len(ls) != 3 || ls[0] != math.MinInt64 || ls[1] != 0 || ls[2] != math.MaxInt64 {
		t.Fatalf("I64 = %v (err %v)", ls, err)
	}
	fs, err := sf.F64(3)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{math.Pi, math.Inf(1), math.Inf(-1), math.Copysign(0, -1), nan}
	if len(fs) != len(want) {
		t.Fatalf("F64 = %v", fs)
	}
	for i := range want {
		if math.Float64bits(fs[i]) != math.Float64bits(want[i]) {
			t.Fatalf("f64[%d] bits = %#x want %#x", i, math.Float64bits(fs[i]), math.Float64bits(want[i]))
		}
	}
}

// TestFooterDetectsBitRot flips every byte of a section file in turn. A
// v4 file has no trailing footer; its seals are the table CRC over the
// metadata and one CRC per section, and together they must reject a flip
// of any byte that carries content. Only the zero padding between the
// metadata and the sections, which no loader reads, may flip unnoticed.
func TestFooterDetectsBitRot(t *testing.T) {
	data, _, _, _ := buildTestFile(t)
	clean, err := ParseSections(data, testMagic)
	if err != nil {
		t.Fatal(err)
	}
	metaEnd := int64(len(testMagic) + 8 + 16 + 8 + clean.NumSections()*tableEntrySize + 4)
	sealed := func(i int64) bool {
		if i < metaEnd {
			return true
		}
		for _, s := range clean.sections {
			if i >= s.off && i < s.off+s.count*int64(kindSize(s.kind)) {
				return true
			}
		}
		return false
	}
	load := func(d []byte) error {
		sf, err := ParseSections(d, testMagic)
		if err != nil {
			return err
		}
		return sf.VerifySections()
	}
	for i := range data {
		rotted := append([]byte(nil), data...)
		rotted[i] ^= 0x40
		err := load(rotted)
		if sealed(int64(i)) && err == nil {
			t.Fatalf("flipped byte %d accepted", i)
		}
		if !sealed(int64(i)) && err != nil {
			t.Fatalf("flipped padding byte %d rejected: %v", i, err)
		}
	}
}

// TestBadMagic feeds a well-formed section file to a reader of another
// index family: it must be refused as a plain bad magic, not as version
// skew, on the bytes path and on both file paths.
func TestBadMagic(t *testing.T) {
	data, _, _, _ := buildTestFile(t)
	const other = "FANNRPHL4\n"
	check := func(how string, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s: foreign magic accepted", how)
		}
		var ve *FormatVersionError
		if errors.As(err, &ve) {
			t.Fatalf("%s: foreign magic classified as version skew: %v", how, err)
		}
		if !strings.Contains(err.Error(), "bad magic") {
			t.Fatalf("%s: error %q does not say bad magic", how, err)
		}
	}
	_, err := ParseSections(data, other)
	check("ParseSections", err)
	path := filepath.Join(t.TempDir(), "idx")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, mapped := range []bool{true, false} {
		_, err := OpenSectionFile(path, other, mapped)
		check("OpenSectionFile", err)
	}
}

// TestTruncatedStream cuts a section file at every length short of the
// whole: each prefix must be refused by ParseSections itself, so a torn
// write never reaches a loader that would view bytes past the end.
func TestTruncatedStream(t *testing.T) {
	data, _, _, _ := buildTestFile(t)
	for n := range data {
		if _, err := ParseSections(data[:n], testMagic); err == nil {
			t.Fatalf("%d-byte prefix of a %d-byte file accepted", n, len(data))
		}
	}
}

// TestImplausibleLength forges each length field of the metadata — the
// header length, the section count and a section's element count — to a
// negative value and to one past its limit: each must be refused as
// implausible before any allocation or offset arithmetic trusts it. A
// value exactly at the limit is plausible and fails only because the
// file is too short for it.
func TestImplausibleLength(t *testing.T) {
	data, _, _, _ := buildTestFile(t)
	tableStart := len(testMagic) + 8 + 16 + 8
	fields := []struct {
		name  string
		pos   int
		limit int64
	}{
		{"header-length", len(testMagic), MaxHeaderLen},
		{"section-count", tableStart - 8, MaxSectionCount},
		{"element-count", tableStart + 8, MaxSliceLen},
	}
	for _, f := range fields {
		forge := func(v int64) error {
			d := append([]byte(nil), data...)
			binary.LittleEndian.PutUint64(d[f.pos:], uint64(v))
			_, err := ParseSections(d, testMagic)
			return err
		}
		for _, v := range []int64{-1, math.MinInt64, f.limit + 1, math.MaxInt64} {
			if err := forge(v); err == nil || !strings.Contains(err.Error(), "implausible") {
				t.Fatalf("%s = %d: err = %v, want an implausible-length error", f.name, v, err)
			}
		}
		if err := forge(f.limit); err == nil || strings.Contains(err.Error(), "implausible") {
			t.Fatalf("%s = %d (the limit): err = %v, want a past-the-file error", f.name, f.limit, err)
		}
	}
}
