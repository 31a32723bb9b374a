package gtree

import (
	"fmt"
	"io"
	"math"

	"fannr/internal/binio"
	"fannr/internal/graph"
)

// magic v4: a binio section file — section table with per-section CRCs
// followed by 64-byte-aligned raw sections (leafOf, posInLeaf, leafSeq,
// per-node metadata, islab, fslab), the same layout the in-memory Tree
// uses after flatten(). A loader can mmap the file read-only and point
// every node's views at the page cache (Load); Read decodes the
// sections onto the heap. Only the node headers live on the heap after
// a load: X is addressed positionally (child c's borders are
// X[c.xoff:][:len(c.borders)]), and xoff is recomputed from the stored
// lengths, so the file carries no lookup structure at all. Every other
// version, the v3 stream included, fails with a rebuild hint.
const magic = "FANNRGT4\n"

// nodeMetaFields is the per-node record width in the v4 metadata
// section: parent, depth, lo, hi, then the nine view lengths in
// flatten() pack order.
const nodeMetaFields = 13

// Save serializes the tree in the v4 section format. The graph itself is
// not embedded — reattach the same graph in Read or Load.
func (t *Tree) Save(w io.Writer) error {
	sw := binio.NewSectionWriter(magic)
	sw.HeaderI64(int64(t.g.NumNodes()))
	sw.HeaderI64(int64(t.opt.Fanout))
	sw.HeaderI64(int64(t.opt.MaxLeafSize))
	sw.HeaderI64(int64(len(t.nodes)))
	sw.I32Section(t.leafOf)
	sw.I32Section(t.posInLeaf)
	sw.I32Section(t.leafSeq)
	meta := make([]int64, 0, len(t.nodes)*nodeMetaFields)
	for i := range t.nodes {
		n := &t.nodes[i]
		x := len(n.X)
		if n.isLeaf() {
			x = 0 // leaf X aliases borders; not slab-resident
		}
		meta = append(meta,
			int64(n.parent), int64(n.depth), int64(n.lo), int64(n.hi),
			int64(len(n.children)), int64(len(n.verts)), int64(len(n.borders)),
			int64(x), int64(len(n.borderX)),
			int64(len(n.ladjStart)), int64(len(n.ladjNode)),
			int64(len(n.mat)), int64(len(n.ladjW)))
	}
	sw.I64Section(meta)
	sw.I32Section(t.islab)
	sw.F64Section(t.fslab)
	_, err := sw.WriteTo(w)
	return err
}

// nodeLens mirrors the per-node metadata record: view lengths into the
// two slabs, in flatten() pack order.
type nodeLens struct {
	children, verts, borders, x, borderX, ladjStart, ladjNode int32
	mat, ladjW                                                int64
}

// Read deserializes a v4 tree from a stream onto the heap and
// reattaches it to g, which must be the graph the tree was built on —
// use Load for a zero-copy mmap of a file.
func Read(r io.Reader, g *graph.Graph) (*Tree, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("gtree: reading stream: %w", err)
	}
	sf, err := binio.ParseSections(data, magic)
	if err != nil {
		return nil, fmt.Errorf("gtree: %w", err)
	}
	if err := sf.VerifySections(); err != nil {
		return nil, fmt.Errorf("gtree: verifying index: %w", err)
	}
	return fromSections(sf, g, true)
}

// LoadOptions configures Load.
type LoadOptions = binio.LoadOptions

// Load opens a v4 index file and reattaches it to g. With opts.Mmap the
// returned Tree's slabs are zero-copy views into a read-only mapping —
// see Mapped/Close.
func Load(path string, g *graph.Graph, opts LoadOptions) (*Tree, error) {
	sf, err := binio.OpenSectionFile(path, magic, opts.Mmap)
	if err != nil {
		return nil, fmt.Errorf("gtree: %w", err)
	}
	audit := !sf.Mapped() || opts.Verify
	if audit {
		if err := sf.VerifySections(); err != nil {
			sf.Close()
			return nil, fmt.Errorf("gtree: verifying index: %w", err)
		}
	}
	t, err := fromSections(sf, g, audit)
	if err != nil {
		sf.Close()
		return nil, err
	}
	t.sf = sf
	return t, nil
}

// fromSections assembles and validates a Tree over a parsed v4 file.
// Header, metadata and shape checks always run; the O(slab) content
// audit (validate) runs when audit is set — heap loads and mmap with
// Verify — since it would fault in every page of a mapped beyond-RAM
// index. See Load for the trust model.
func fromSections(sf *binio.SectionFile, g *graph.Graph, audit bool) (*Tree, error) {
	h := sf.Header()
	nNodes := int(h.I64())
	fanout := int(h.I64())
	maxLeaf := int(h.I64())
	count := int(h.I64())
	if err := h.Err(); err != nil {
		return nil, fmt.Errorf("gtree: reading header: %w", err)
	}
	if nNodes != g.NumNodes() {
		return nil, fmt.Errorf("gtree: index built on %d nodes, graph has %d", nNodes, g.NumNodes())
	}
	if count <= 0 || count > 2*nNodes+1 {
		return nil, fmt.Errorf("gtree: implausible tree-node count %d for %d vertices", count, nNodes)
	}
	if got := sf.NumSections(); got != 6 {
		return nil, fmt.Errorf("gtree: file has %d sections, want 6", got)
	}
	t := &Tree{g: g}
	t.opt.Fanout = fanout
	t.opt.MaxLeafSize = maxLeaf
	var err error
	if t.leafOf, err = sf.I32(0); err != nil {
		return nil, fmt.Errorf("gtree: leafOf section: %w", err)
	}
	if t.posInLeaf, err = sf.I32(1); err != nil {
		return nil, fmt.Errorf("gtree: posInLeaf section: %w", err)
	}
	if t.leafSeq, err = sf.I32(2); err != nil {
		return nil, fmt.Errorf("gtree: leafSeq section: %w", err)
	}
	if len(t.leafOf) != nNodes || len(t.posInLeaf) != nNodes || len(t.leafSeq) != nNodes {
		return nil, fmt.Errorf("gtree: vertex tables truncated")
	}
	meta, err := sf.I64(3)
	if err != nil {
		return nil, fmt.Errorf("gtree: node metadata section: %w", err)
	}
	if len(meta) != count*nodeMetaFields {
		return nil, fmt.Errorf("gtree: metadata section has %d values, %d tree nodes need %d",
			len(meta), count, count*nodeMetaFields)
	}
	if t.islab, err = sf.I32(4); err != nil {
		return nil, fmt.Errorf("gtree: id slab section: %w", err)
	}
	if t.fslab, err = sf.F64(5); err != nil {
		return nil, fmt.Errorf("gtree: matrix slab section: %w", err)
	}
	t.nodes = make([]node, count)
	lens := make([]nodeLens, count)
	var wantI, wantF int64
	field := func(i, j int) int64 { return meta[i*nodeMetaFields+j] }
	i32of := func(i, j int) (int32, error) {
		v := field(i, j)
		if v < math.MinInt32 || v > math.MaxInt32 {
			return 0, fmt.Errorf("gtree: tree node %d metadata field %d holds %d, outside int32", i, j, v)
		}
		return int32(v), nil
	}
	for i := range t.nodes {
		n := &t.nodes[i]
		l := &lens[i]
		fields := []*int32{&n.parent, &n.depth, &n.lo, &n.hi,
			&l.children, &l.verts, &l.borders, &l.x, &l.borderX, &l.ladjStart, &l.ladjNode}
		for j, dst := range fields {
			v, err := i32of(i, j)
			if err != nil {
				return nil, err
			}
			*dst = v
		}
		l.mat = field(i, 11)
		l.ladjW = field(i, 12)
		if l.children < 0 || l.verts < 0 || l.borders < 0 || l.x < 0 ||
			l.borderX < 0 || l.ladjStart < 0 || l.ladjNode < 0 || l.mat < 0 || l.ladjW < 0 {
			return nil, fmt.Errorf("gtree: tree node %d has negative array length", i)
		}
		if l.children == 0 && l.x != 0 {
			return nil, fmt.Errorf("gtree: leaf node %d claims a separate X set", i)
		}
		wantI += int64(l.children) + int64(l.verts) + int64(l.borders) +
			int64(l.x) + int64(l.borderX) + int64(l.ladjStart) + int64(l.ladjNode)
		wantF += l.mat + l.ladjW
		if wantI > binio.MaxSliceLen || wantF > binio.MaxSliceLen {
			return nil, fmt.Errorf("gtree: implausible slab size (%d ids, %d cells)", wantI, wantF)
		}
	}
	if err := t.assemble(lens, wantI, wantF, audit); err != nil {
		return nil, err
	}
	return t, nil
}

// assemble carves every node's views out of the two slabs (in flatten()
// pack order), derives each node's xoff, and — when audit is set — runs
// the full content-range audit. Heap loads enforce every invariant;
// fast mapped loads skip only the validate pass. The shape checks that
// stay on the fast path are the ones positional addressing rests on:
// every non-root node is the child of exactly the parent it names, an
// internal node's X is as long as its children's border lists together,
// and borderX has one entry per border — so xoff+j always lands inside
// the parent's matrix. They read O(tree nodes) ids, not the slabs.
func (t *Tree) assemble(lens []nodeLens, wantI, wantF int64, audit bool) error {
	if int64(len(t.islab)) != wantI || int64(len(t.fslab)) != wantF {
		return fmt.Errorf("gtree: slabs hold %d/%d entries, metadata expects %d/%d",
			len(t.islab), len(t.fslab), wantI, wantF)
	}
	var oi, of int64
	carveI := func(n int32) []int32 {
		s := t.islab[oi : oi+int64(n) : oi+int64(n)]
		oi += int64(n)
		return s
	}
	carveF := func(n int64) []float64 {
		s := t.fslab[of : of+n : of+n]
		of += n
		return s
	}
	for i := range t.nodes {
		n := &t.nodes[i]
		l := &lens[i]
		// Same pack order as flatten(): float views first, then id views.
		n.mat = carveF(l.mat)
		n.ladjW = carveF(l.ladjW)
		n.children = carveI(l.children)
		n.verts = carveI(l.verts)
		n.borders = carveI(l.borders)
		if n.isLeaf() {
			n.X = n.borders
		} else {
			n.X = carveI(l.x)
		}
		n.borderX = carveI(l.borderX)
		n.ladjStart = carveI(l.ladjStart)
		n.ladjNode = carveI(l.ladjNode)
		wantMat := len(n.X) * len(n.X)
		if n.isLeaf() {
			wantMat = len(n.borders) * len(n.verts)
		}
		if len(n.mat) != wantMat {
			return fmt.Errorf("gtree: tree node %d matrix has %d cells, want %d", i, len(n.mat), wantMat)
		}
		if len(n.borderX) != len(n.borders) {
			return fmt.Errorf("gtree: tree node %d has %d borderX entries for %d borders", i, len(n.borderX), len(n.borders))
		}
		n.xoff = -1
	}
	t.nodes[0].xoff = 0
	for i := range t.nodes {
		n := &t.nodes[i]
		if n.isLeaf() {
			continue
		}
		off := 0
		for _, c := range n.children {
			if c <= int32(i) || int(c) >= len(t.nodes) || t.nodes[c].parent != int32(i) || t.nodes[c].xoff >= 0 {
				// Children always follow their parent in build order; demanding
				// c > i also rules out cycles without a separate traversal.
				return fmt.Errorf("gtree: tree node %d lists child %d, which is outside (%d,%d), names another parent or is listed twice",
					i, c, i, len(t.nodes))
			}
			t.nodes[c].xoff = int32(off)
			off += len(t.nodes[c].borders)
		}
		if off != len(n.X) {
			return fmt.Errorf("gtree: tree node %d has an X set of %d entries, its children's borders total %d", i, len(n.X), off)
		}
	}
	for i := range t.nodes {
		if t.nodes[i].xoff < 0 {
			return fmt.Errorf("gtree: tree node %d is listed by no parent", i)
		}
	}
	if !audit {
		return nil
	}
	return t.validate()
}

// validate is the content-range audit over everything the query path
// indexes with: a corrupted-but-CRC-valid or hand-forged file must fail
// here with a descriptive error, not panic inside a query. Checks cover
// tree topology (depths, intervals; assemble has already matched every
// child to its parent), the vertex tables, border/X cross references —
// X must be the children's border lists in order, which is what lets the
// query path address it by offset — and each leaf's CSR adjacency.
func (t *Tree) validate() error {
	count := int32(len(t.nodes))
	nNodes := int32(t.g.NumNodes())
	for i := range t.nodes {
		n := &t.nodes[i]
		ni := int32(i)
		if i == 0 {
			if n.parent != -1 {
				return fmt.Errorf("gtree: root claims parent %d", n.parent)
			}
		} else if n.parent < 0 || n.parent >= count {
			return fmt.Errorf("gtree: tree node %d has parent %d outside [0,%d)", i, n.parent, count)
		} else if n.parent == ni {
			return fmt.Errorf("gtree: tree node %d is its own parent", i)
		} else if t.nodes[n.parent].depth != n.depth-1 {
			return fmt.Errorf("gtree: tree node %d at depth %d has parent at depth %d",
				i, n.depth, t.nodes[n.parent].depth)
		}
		if n.lo < 0 || n.hi < n.lo || n.hi > nNodes {
			return fmt.Errorf("gtree: tree node %d covers leaf sequence [%d,%d) outside [0,%d]",
				i, n.lo, n.hi, nNodes)
		}
		for _, v := range n.verts {
			if v < 0 || v >= nNodes {
				return fmt.Errorf("gtree: tree node %d vertex %d outside graph", i, v)
			}
		}
		for _, b := range n.borders {
			if b < 0 || b >= nNodes {
				return fmt.Errorf("gtree: tree node %d border %d outside graph", i, b)
			}
		}
		for j, bx := range n.borderX {
			if bx < 0 || int(bx) >= len(n.X) {
				return fmt.Errorf("gtree: tree node %d borderX entry %d outside its %d-entry X set", i, bx, len(n.X))
			}
			if n.X[bx] != n.borders[j] {
				return fmt.Errorf("gtree: tree node %d borderX entry %d points at vertex %d, border %d is vertex %d",
					i, j, n.X[bx], j, n.borders[j])
			}
		}
		for _, c := range n.children {
			ch := &t.nodes[c]
			for j, b := range ch.borders {
				if x := n.X[int(ch.xoff)+j]; x != b {
					return fmt.Errorf("gtree: tree node %d X set is not its children's borders in order: entry %d is vertex %d, child %d border %d is vertex %d",
						i, int(ch.xoff)+j, x, c, j, b)
				}
			}
		}
		if n.isLeaf() {
			// CSR audit: ladjStart must be a monotone prefix-sum table over
			// ladjNode/ladjW, and every adjacency target a local vertex index.
			nv := len(n.verts)
			if len(n.ladjStart) != nv+1 {
				return fmt.Errorf("gtree: leaf %d CSR has %d row offsets for %d vertices", i, len(n.ladjStart), nv)
			}
			if nv > 0 {
				if n.ladjStart[0] != 0 {
					return fmt.Errorf("gtree: leaf %d CSR starts at %d, want 0", i, n.ladjStart[0])
				}
				for p := 0; p < nv; p++ {
					if n.ladjStart[p+1] < n.ladjStart[p] {
						return fmt.Errorf("gtree: leaf %d CSR offsets decrease at row %d (%d -> %d)",
							i, p, n.ladjStart[p], n.ladjStart[p+1])
					}
				}
				if int(n.ladjStart[nv]) != len(n.ladjNode) {
					return fmt.Errorf("gtree: leaf %d CSR claims %d edges, slab holds %d",
						i, n.ladjStart[nv], len(n.ladjNode))
				}
			}
			if len(n.ladjW) != len(n.ladjNode) {
				return fmt.Errorf("gtree: leaf %d CSR has %d weights for %d targets", i, len(n.ladjW), len(n.ladjNode))
			}
			for e, tgt := range n.ladjNode {
				if tgt < 0 || int(tgt) >= nv {
					return fmt.Errorf("gtree: leaf %d CSR edge %d targets local vertex %d outside [0,%d)", i, e, tgt, nv)
				}
			}
		}
	}
	// Vertex tables: every graph vertex must map to a real leaf, a valid
	// position inside it, and a leaf-sequence number inside that leaf's
	// interval — the O(1) membership test contains() trusts all three.
	for v := int32(0); v < nNodes; v++ {
		lf := t.leafOf[v]
		if lf < 0 || lf >= count || !t.nodes[lf].isLeaf() {
			return fmt.Errorf("gtree: vertex %d maps to tree node %d, which is not a leaf", v, lf)
		}
		leaf := &t.nodes[lf]
		pos := t.posInLeaf[v]
		if pos < 0 || int(pos) >= len(leaf.verts) {
			return fmt.Errorf("gtree: vertex %d claims position %d in a %d-vertex leaf", v, pos, len(leaf.verts))
		}
		if leaf.verts[pos] != v {
			return fmt.Errorf("gtree: vertex %d claims position %d of leaf %d, which holds vertex %d",
				v, pos, lf, leaf.verts[pos])
		}
		if s := t.leafSeq[v]; s < leaf.lo || s >= leaf.hi {
			return fmt.Errorf("gtree: vertex %d has leaf sequence %d outside its leaf's [%d,%d)",
				v, s, leaf.lo, leaf.hi)
		}
	}
	return nil
}
