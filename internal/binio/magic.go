package binio

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"unsafe"
)

// FormatVersionError reports a magic tag from the right index family but
// the wrong format version — a v2 file fed to a v4 loader, or a v4 file
// fed to an old binary. Its message names the fix, not just the
// mismatch.
type FormatVersionError struct {
	Family string // e.g. "FANNRPHL"
	Found  int    // version carried by the stream
	Want   int    // version this build reads
}

func (e *FormatVersionError) Error() string {
	return fmt.Sprintf("binio: %s index is format v%d, this build reads v%d — rebuild the index with fannr-index",
		e.Family, e.Found, e.Want)
}

// splitMagic decomposes a magic tag like "FANNRPHL3\n" into its family
// ("FANNRPHL") and version (3). Tags without trailing digits are version
// 1 (the original format predates version digits).
func splitMagic(tag string) (family string, version int, ok bool) {
	s := strings.TrimSuffix(tag, "\n")
	i := len(s)
	for i > 0 && s[i-1] >= '0' && s[i-1] <= '9' {
		i--
	}
	if i == 0 || i < len(s)-2 { // all digits, or implausibly long version
		return "", 0, false
	}
	family = s[:i]
	version = 1
	if i < len(s) {
		v, err := strconv.Atoi(s[i:])
		if err != nil {
			return "", 0, false
		}
		version = v
	}
	return family, version, true
}

// magicError builds the error for a magic mismatch: a FormatVersionError
// when got is a different version of want's family (so callers and
// operators can tell "old index" from "not an index"), a plain mismatch
// otherwise.
func magicError(got, want string) error {
	wf, wv, wok := splitMagic(want)
	// The stream's tag may be longer or shorter than the expected one
	// (version digits come and go); compare on the family prefix.
	if wok && strings.HasPrefix(got, wf) {
		if gf, gv, gok := splitMagic(got[:min(len(got), len(wf)+3)]); gok && gf == wf && gv != wv {
			return &FormatVersionError{Family: wf, Found: gv, Want: wv}
		}
	}
	return fmt.Errorf("binio: bad magic %q, want %q", got, want)
}

// readFileAligned reads the whole file into a buffer whose base address
// is 8-byte aligned, so the zero-copy slice views work on heap-loaded
// files exactly as they do on page-aligned mappings.
func readFileAligned(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size != int64(int(size)) {
		return nil, fmt.Errorf("binio: %s: %d bytes exceed the address space", path, size)
	}
	// Allocate as []uint64 to get 8-byte alignment by construction.
	words := (int(size) + 7) / 8
	if words == 0 {
		words = 1
	}
	backing := make([]uint64, words)
	buf := unsafe.Slice((*byte)(unsafe.Pointer(&backing[0])), words*8)[:size]
	if _, err := readFull(f, buf); err != nil {
		return nil, fmt.Errorf("binio: reading %s: %w", path, err)
	}
	return buf, nil
}

func readFull(f *os.File, buf []byte) (int, error) {
	total := 0
	for total < len(buf) {
		n, err := f.Read(buf[total:])
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}
