// Package binio is the on-disk container of fannr's persisted indexes
// (hub labels and the G-tree): the v4 section file (section.go). All
// values are little-endian, every array sits at a 64-byte-aligned offset
// so a loader can mmap the file and view it in place, and CRC32s seal
// the metadata and each section so bit-rot in a saved index fails loudly
// at load time instead of corrupting answers. A tag of the right family
// but another version fails with a FormatVersionError that names the
// fix.
package binio

// MaxSliceLen bounds any array length a section file may declare.
const MaxSliceLen = 1 << 31

// LoadOptions configures the index loaders (phl.Load, gtree.Load).
type LoadOptions struct {
	// Mmap selects zero-copy mapping. When false the file is read onto
	// the heap.
	Mmap bool
	// Verify forces the per-section CRC pass even under mmap (reading the
	// whole file once). Heap loads always verify.
	Verify bool
}
