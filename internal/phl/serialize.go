package phl

import (
	"fmt"
	"io"

	"fannr/internal/binio"
)

// magic v4: a binio section file — page-alignable section table followed
// by four 64-byte-aligned raw sections (rank, off, hubSlab, distSlab),
// exactly the in-memory Index layout. A loader can therefore mmap the
// file read-only and point the slab fields at zero-copy views (Load);
// Read decodes the same sections onto the heap. The section table
// carries its own CRC32 and one per section: metadata is always
// verified, payloads are verified on heap loads and on demand for mmap
// loads. Every other version, the v3 stream included, fails with a
// rebuild hint.
const magic = "FANNRPHL4\n"

// Save serializes the index in the v4 section format.
func (ix *Index) Save(w io.Writer) error {
	sw := binio.NewSectionWriter(magic)
	sw.HeaderI64(int64(ix.n))
	sw.I32Section(ix.rank)
	sw.I64Section(ix.off)
	sw.I32Section(ix.hubSlab)
	sw.F64Section(ix.distSlab)
	_, err := sw.WriteTo(w)
	return err
}

// Read deserializes a v4 index from a stream onto the heap — use Load
// for a zero-copy mmap of a file.
func Read(r io.Reader) (*Index, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("phl: reading stream: %w", err)
	}
	sf, err := binio.ParseSections(data, magic)
	if err != nil {
		return nil, fmt.Errorf("phl: %w", err)
	}
	if err := sf.VerifySections(); err != nil {
		return nil, fmt.Errorf("phl: verifying index: %w", err)
	}
	return fromSections(sf, true)
}

// LoadOptions configures Load.
type LoadOptions = binio.LoadOptions

// Load opens a v4 index file. With opts.Mmap the returned Index's slabs
// are zero-copy views into a read-only mapping — see Mapped/Close.
//
// Trust model: heap loads verify every section CRC and audit every
// content range, so time-to-first-query is O(file). Mapped loads verify
// the section-table CRC and the O(n) tables (rank, offsets) but defer
// the label-slab scans — anything O(slab) would fault in every page of
// a beyond-RAM index, defeating the mapping. opts.Verify buys the full
// heap-grade validation pass under mmap.
func Load(path string, opts LoadOptions) (*Index, error) {
	sf, err := binio.OpenSectionFile(path, magic, opts.Mmap)
	if err != nil {
		return nil, fmt.Errorf("phl: %w", err)
	}
	audit := !sf.Mapped() || opts.Verify
	if audit {
		if err := sf.VerifySections(); err != nil {
			sf.Close()
			return nil, fmt.Errorf("phl: verifying index: %w", err)
		}
	}
	ix, err := fromSections(sf, audit)
	if err != nil {
		sf.Close()
		return nil, err
	}
	ix.sf = sf
	return ix, nil
}

// fromSections assembles and validates an Index over a parsed v4 file.
// Shape checks and the O(n) table audits (rank in range, offsets
// monotone and consistent with the slabs) always run — they protect
// label() slicing and the Batcher scatter table from panicking inside a
// query, and touch only the small sections. The O(slab) hub scan runs
// when audit is set (heap loads, mmap with Verify); a fast mapped load
// skips it so opening a beyond-RAM index does not fault in every page.
func fromSections(sf *binio.SectionFile, audit bool) (*Index, error) {
	h := sf.Header()
	n := int(h.I64())
	if err := h.Err(); err != nil {
		return nil, fmt.Errorf("phl: reading header: %w", err)
	}
	if n <= 0 || n > binio.MaxSliceLen {
		return nil, fmt.Errorf("phl: implausible node count %d", n)
	}
	if got := sf.NumSections(); got != 4 {
		return nil, fmt.Errorf("phl: file has %d sections, want 4", got)
	}
	rank, err := sf.I32(0)
	if err != nil {
		return nil, fmt.Errorf("phl: rank section: %w", err)
	}
	off, err := sf.I64(1)
	if err != nil {
		return nil, fmt.Errorf("phl: offset section: %w", err)
	}
	hubSlab, err := sf.I32(2)
	if err != nil {
		return nil, fmt.Errorf("phl: hub section: %w", err)
	}
	distSlab, err := sf.F64(3)
	if err != nil {
		return nil, fmt.Errorf("phl: distance section: %w", err)
	}
	if len(rank) != n {
		return nil, fmt.Errorf("phl: rank table has %d entries, want %d", len(rank), n)
	}
	if len(off) != n+1 {
		return nil, fmt.Errorf("phl: offset table has %d entries, want %d", len(off), n+1)
	}
	if off[0] != 0 {
		return nil, fmt.Errorf("phl: offset table starts at %d, want 0", off[0])
	}
	for v := 0; v < n; v++ {
		if off[v+1] < off[v] {
			return nil, fmt.Errorf("phl: offset table decreases at node %d (%d -> %d)", v, off[v], off[v+1])
		}
	}
	if int64(len(hubSlab)) != off[n] || int64(len(distSlab)) != off[n] {
		return nil, fmt.Errorf("phl: slabs hold %d/%d entries, offsets expect %d",
			len(hubSlab), len(distSlab), off[n])
	}
	ix := &Index{n: n, rank: rank, off: off, hubSlab: hubSlab, distSlab: distSlab}
	if err := ix.validateRank(); err != nil {
		return nil, err
	}
	if audit {
		if err := ix.validateHubs(); err != nil {
			return nil, err
		}
	}
	return ix, nil
}

// validateRank is the O(n) half of the content audit: rank and hub
// entries index rank-sized tables at query time (Batcher's scatter
// table), so an out-of-range entry in a CRC-valid file would otherwise
// become an index-out-of-range panic mid-query.
func (ix *Index) validateRank() error {
	n32 := int32(ix.n)
	for v, r := range ix.rank {
		if r < 0 || r >= n32 {
			return fmt.Errorf("phl: node %d has rank %d outside [0,%d)", v, r, ix.n)
		}
	}
	return nil
}

// validateHubs is the O(slab) half of the content audit — skipped on
// fast mapped loads, where it would fault in the whole label slab.
func (ix *Index) validateHubs() error {
	n32 := int32(ix.n)
	for i, h := range ix.hubSlab {
		if h < 0 || h >= n32 {
			return fmt.Errorf("phl: label entry %d names hub rank %d outside [0,%d)", i, h, ix.n)
		}
	}
	return nil
}
