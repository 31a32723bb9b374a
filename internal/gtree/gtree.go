// Package gtree implements the G-tree index (Zhong et al., CIKM'13 /
// TKDE'15) used by the paper as its scalable road-network index: a
// balanced hierarchical partitioning of the graph where every tree node
// stores distance matrices over its border vertices, supporting fast
// shortest-path distance queries (assembly method) and kNN search driven
// by occurrence lists over the object set.
//
// Two deliberate deviations from the original, recorded in DESIGN.md:
//
//   - Partitioning uses coordinate-based recursive balanced bisection
//     instead of METIS (with a BFS-order fallback for graphs without
//     coordinates). On near-planar road networks this yields the balanced
//     small-cut partitions G-tree's analysis assumes.
//
//   - After the usual bottom-up assembly (which yields distances *within*
//     each subtree's subgraph), a top-down "global-matrix refinement" pass
//     folds in detours that leave and re-enter each subtree through its
//     borders. Every internal matrix then holds true global distances,
//     which makes Dist and the nearest-object search provably exact —
//     tests verify them against Dijkstra.
package gtree

import (
	"fmt"
	"math"
	"sort"
	"unsafe"

	"fannr/internal/binio"
	"fannr/internal/graph"
	"fannr/internal/par"
	"fannr/internal/pqueue"
)

// Options configures construction.
type Options struct {
	// Fanout is the number of children per internal node (default 4, the
	// paper's setting).
	Fanout int
	// MaxLeafSize is τ, the maximum vertices per leaf (default 128).
	MaxLeafSize int
	// Workers fans the matrix-construction passes (leaf matrices,
	// bottom-up assembly, top-down refinement) out across a worker pool:
	// 0 = GOMAXPROCS, 1 = the sequential path. The resulting index is
	// bit-identical for every worker count — each matrix row is an
	// independent deterministic Dijkstra.
	Workers int
}

func (o *Options) defaults() {
	if o.Fanout < 2 {
		o.Fanout = 4
	}
	if o.MaxLeafSize < 4 {
		o.MaxLeafSize = 128
	}
}

// Tree is an immutable G-tree over a road network. It is safe for
// concurrent readers; use a Querier per goroutine for queries.
type Tree struct {
	g   *graph.Graph
	opt Options

	nodes []node
	// leafOf maps a graph vertex to its leaf tree-node index; posInLeaf to
	// its position within that leaf's vertex list.
	leafOf    []int32
	posInLeaf []int32
	// leafSeq orders vertices by a DFS over leaves so that every tree node
	// covers a contiguous interval [lo, hi) of leaf sequence numbers;
	// membership tests are O(1).
	leafSeq []int32

	// Flat slab storage: after flatten(), every node's float64 matrices
	// (mat, ladjW) live in fslab and every id/index array (children,
	// verts, borders, X, borderX, ladjStart, ladjNode) lives in islab;
	// the node fields are subslice views. Two contiguous allocations
	// instead of thousands keep the GC out of the index and match the
	// on-disk v4 layout byte for byte, which is what makes mmap-backed
	// loading possible.
	fslab []float64
	islab []int32

	// sf is non-nil for trees opened through Load: the slabs and vertex
	// tables above are then views into the section file (zero-copy into a
	// read-only mmap when sf.Mapped()). Nothing in the query path writes
	// through them — mmap'd pages are PROT_READ, so a stray write would
	// be a segfault, not corruption. Queriers write only their own
	// scratch arenas.
	sf *binio.SectionFile
}

// Close releases the backing file mapping for trees opened with Load.
// The tree (and every Querier minted from it) must not be used after
// Close. Heap-built trees return nil.
func (t *Tree) Close() error {
	if t.sf == nil {
		return nil
	}
	sf := t.sf
	t.sf = nil
	t.nodes, t.leafOf, t.posInLeaf, t.leafSeq = nil, nil, nil, nil
	t.fslab, t.islab = nil, nil
	return sf.Close()
}

// Mapped reports whether the tree's slabs are zero-copy views into an
// mmap'd file.
func (t *Tree) Mapped() bool { return t.sf != nil && t.sf.Mapped() }

// MappedBytes reports the bytes served from the file mapping (0 for
// heap-resident trees). Stats().MemoryBytes counts only heap-resident
// bytes, so the two never double-count.
func (t *Tree) MappedBytes() int64 {
	if t.sf == nil {
		return 0
	}
	return t.sf.MappedBytes()
}

// MappedData returns the raw mapped byte range backing the tree, or nil
// for heap-resident trees — the range the lifecycle fault layer
// registers to attribute SIGBUS page-in faults to this tree.
func (t *Tree) MappedData() []byte {
	if t.sf == nil {
		return nil
	}
	return t.sf.MappedData()
}

// MemoryBytes reports the heap-resident footprint (Stats().MemoryBytes
// without walking the rest of the stats), matching the sizing interface
// the server's index registry expects.
func (t *Tree) MemoryBytes() int64 { return t.Stats().MemoryBytes }

type node struct {
	parent   int32
	children []int32
	depth    int32
	lo, hi   int32 // leaf-sequence interval covered by this node

	verts   []graph.NodeID // leaf only: vertices in leaf order
	borders []graph.NodeID

	// X is the matrix vertex set: borders for a leaf, the concatenation of
	// the children's border lists (in child order) for an internal node.
	// The layout is positional: child c's j-th border sits at X[c.xoff+j],
	// so the query path never looks a vertex up.
	X []graph.NodeID
	// xoff is the offset of this node's border block inside its parent's
	// X, derived from the children's border counts at build
	// (computeBorders) and at load (assemble) — never stored in the file.
	xoff int32
	// borderX indexes this node's own borders within X.
	borderX []int32

	// mat holds, for an internal node, |X|×|X| global shortest-path
	// distances (row-major); for a leaf, |borders|×|verts| within-leaf
	// distances.
	mat []float64

	// Leaf-local CSR for within-leaf Dijkstra (local vertex indices).
	ladjStart []int32
	ladjNode  []int32
	ladjW     []float64
}

func (n *node) isLeaf() bool { return len(n.children) == 0 }

func (n *node) leafDist(borderIdx, vertIdx int) float64 {
	return n.mat[borderIdx*len(n.verts)+vertIdx]
}

func (n *node) matDist(i, j int32) float64 {
	return n.mat[int(i)*len(n.X)+int(j)]
}

// Graph returns the indexed graph.
func (t *Tree) Graph() *graph.Graph { return t.g }

// Build constructs the index.
func Build(g *graph.Graph, opt Options) (*Tree, error) {
	opt.defaults()
	t := &Tree{
		g:         g,
		opt:       opt,
		leafOf:    make([]int32, g.NumNodes()),
		posInLeaf: make([]int32, g.NumNodes()),
		leafSeq:   make([]int32, g.NumNodes()),
	}
	workers := par.Resolve(opt.Workers)
	t.partition()
	t.assignSequences()
	t.computeBorders()
	t.buildLeafMatrices(workers)
	t.assembleBottomUp(workers)
	t.refineTopDown(workers)
	t.flatten()
	return t, nil
}

// flatten repacks every node's per-node arrays into two tree-wide slabs,
// leaving the node fields as views into them. Capacities are computed
// exactly up front so the append loop never reallocates (which would
// invalidate earlier views). Leaf X sets alias the leaf's borders both
// before and after.
func (t *Tree) flatten() {
	var nf, ni int64
	for i := range t.nodes {
		n := &t.nodes[i]
		nf += int64(len(n.mat) + len(n.ladjW))
		ni += int64(len(n.children) + len(n.verts) + len(n.borders) +
			len(n.borderX) + len(n.ladjStart) + len(n.ladjNode))
		if !n.isLeaf() {
			ni += int64(len(n.X))
		}
	}
	fslab := make([]float64, 0, nf)
	islab := make([]int32, 0, ni)
	packF := func(s []float64) []float64 {
		lo := len(fslab)
		fslab = append(fslab, s...)
		return fslab[lo:len(fslab):len(fslab)]
	}
	packI := func(s []int32) []int32 {
		lo := len(islab)
		islab = append(islab, s...)
		return islab[lo:len(islab):len(islab)]
	}
	for i := range t.nodes {
		n := &t.nodes[i]
		n.mat = packF(n.mat)
		n.ladjW = packF(n.ladjW)
		n.children = packI(n.children)
		n.verts = packI(n.verts)
		n.borders = packI(n.borders)
		if n.isLeaf() {
			n.X = n.borders
		} else {
			n.X = packI(n.X)
		}
		n.borderX = packI(n.borderX)
		n.ladjStart = packI(n.ladjStart)
		n.ladjNode = packI(n.ladjNode)
	}
	t.fslab = fslab
	t.islab = islab
}

// partition builds the tree structure by recursive balanced splitting.
func (t *Tree) partition() {
	all := make([]graph.NodeID, t.g.NumNodes())
	for i := range all {
		all[i] = graph.NodeID(i)
	}
	type work struct {
		idx   int32
		verts []graph.NodeID
	}
	t.nodes = append(t.nodes, node{parent: -1, depth: 0})
	queue := []work{{idx: 0, verts: all}}
	bfsOrder := t.bfsOrderIfNeeded()
	scratch := newRefineScratch(t.g.NumNodes())
	for len(queue) > 0 {
		w := queue[0]
		queue = queue[1:]
		if len(w.verts) <= t.opt.MaxLeafSize {
			t.nodes[w.idx].verts = w.verts
			continue
		}
		parts := t.splitK(w.verts, t.opt.Fanout, bfsOrder, scratch)
		for _, part := range parts {
			child := int32(len(t.nodes))
			t.nodes = append(t.nodes, node{parent: w.idx, depth: t.nodes[w.idx].depth + 1})
			t.nodes[w.idx].children = append(t.nodes[w.idx].children, child)
			queue = append(queue, work{idx: child, verts: part})
		}
	}
}

// refineScratch holds reusable buffers for FM-style bisection refinement.
type refineScratch struct {
	side  []int8 // 0 = left, 1 = right (valid when stamp matches)
	stamp []uint32
	epoch uint32
}

func newRefineScratch(n int) *refineScratch {
	return &refineScratch{side: make([]int8, n), stamp: make([]uint32, n)}
}

// refineBisection greedily moves boundary vertices between the two halves
// of one bisection when that cuts fewer edges, within a ±1/16 balance
// tolerance. Fewer cut edges mean fewer borders, hence smaller distance
// matrices at every level above.
func (t *Tree) refineBisection(left, right []graph.NodeID, s *refineScratch) ([]graph.NodeID, []graph.NodeID) {
	s.epoch++
	if s.epoch == 0 {
		for i := range s.stamp {
			s.stamp[i] = 0
		}
		s.epoch = 1
	}
	for _, v := range left {
		s.stamp[v] = s.epoch
		s.side[v] = 0
	}
	for _, v := range right {
		s.stamp[v] = s.epoch
		s.side[v] = 1
	}
	sizes := [2]int{len(left), len(right)}
	total := sizes[0] + sizes[1]
	tol := total / 16
	if tol < 1 {
		tol = 1
	}
	min0, min1 := sizes[0]-tol, sizes[1]-tol
	all := append(append(make([]graph.NodeID, 0, total), left...), right...)
	for pass := 0; pass < 2; pass++ {
		moved := false
		for _, v := range all {
			side := s.side[v]
			same, other := 0, 0
			nbrs, _ := t.g.Neighbors(v)
			for _, u := range nbrs {
				if s.stamp[u] != s.epoch {
					continue // neighbor outside this subset
				}
				if s.side[u] == side {
					same++
				} else {
					other++
				}
			}
			if other <= same {
				continue // no cut reduction
			}
			if side == 0 && sizes[0]-1 < min0 {
				continue
			}
			if side == 1 && sizes[1]-1 < min1 {
				continue
			}
			s.side[v] = 1 - side
			sizes[side]--
			sizes[1-side]++
			moved = true
		}
		if !moved {
			break
		}
	}
	// Rebuild into fresh slices: left and right alias one backing array,
	// and the boundary between them has moved.
	newLeft := make([]graph.NodeID, 0, sizes[0])
	newRight := make([]graph.NodeID, 0, sizes[1])
	for _, v := range all {
		if s.side[v] == 0 {
			newLeft = append(newLeft, v)
		} else {
			newRight = append(newRight, v)
		}
	}
	return newLeft, newRight
}

// bfsOrderIfNeeded returns a global BFS ordering used to split graphs that
// carry no coordinates; nil when coordinates are available.
func (t *Tree) bfsOrderIfNeeded() []int32 {
	if t.g.HasCoords() {
		return nil
	}
	order := make([]int32, t.g.NumNodes())
	seen := make([]bool, t.g.NumNodes())
	seq := int32(0)
	var queue []graph.NodeID
	for start := 0; start < t.g.NumNodes(); start++ {
		if seen[start] {
			continue
		}
		seen[start] = true
		queue = append(queue[:0], graph.NodeID(start))
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			order[v] = seq
			seq++
			nbrs, _ := t.g.Neighbors(v)
			for _, u := range nbrs {
				if !seen[u] {
					seen[u] = true
					queue = append(queue, u)
				}
			}
		}
	}
	return order
}

// splitK divides verts into k balanced parts by recursive halving along
// the axis of larger extent (or along the BFS order when no coordinates
// exist), each halving followed by an FM-style boundary refinement. Parts
// start as contiguous regions, which keeps cuts small on near-planar
// networks; refinement then trims ragged boundaries.
func (t *Tree) splitK(verts []graph.NodeID, k int, bfsOrder []int32, scratch *refineScratch) [][]graph.NodeID {
	if k == 1 || len(verts) < 2 {
		return [][]graph.NodeID{verts}
	}
	k1 := k / 2
	cut := len(verts) * k1 / k
	if cut == 0 {
		cut = 1
	}
	if bfsOrder != nil {
		sort.Slice(verts, func(i, j int) bool { return bfsOrder[verts[i]] < bfsOrder[verts[j]] })
	} else {
		minX, minY := math.Inf(1), math.Inf(1)
		maxX, maxY := math.Inf(-1), math.Inf(-1)
		for _, v := range verts {
			x, y := t.g.Coord(v)
			minX, maxX = math.Min(minX, x), math.Max(maxX, x)
			minY, maxY = math.Min(minY, y), math.Max(maxY, y)
		}
		if maxX-minX >= maxY-minY {
			sort.Slice(verts, func(i, j int) bool {
				xi, _ := t.g.Coord(verts[i])
				xj, _ := t.g.Coord(verts[j])
				return xi < xj
			})
		} else {
			sort.Slice(verts, func(i, j int) bool {
				_, yi := t.g.Coord(verts[i])
				_, yj := t.g.Coord(verts[j])
				return yi < yj
			})
		}
	}
	l, r := t.refineBisection(verts[:cut], verts[cut:], scratch)
	cut = copy(verts, l)
	copy(verts[cut:], r)
	left := t.splitK(verts[:cut], k1, bfsOrder, scratch)
	right := t.splitK(verts[cut:], k-k1, bfsOrder, scratch)
	return append(left, right...)
}

// assignSequences numbers vertices by DFS over leaves and records the
// interval each tree node covers.
func (t *Tree) assignSequences() {
	seq := int32(0)
	var dfs func(idx int32)
	dfs = func(idx int32) {
		n := &t.nodes[idx]
		n.lo = seq
		if n.isLeaf() {
			for pos, v := range n.verts {
				t.leafOf[v] = idx
				t.posInLeaf[v] = int32(pos)
				t.leafSeq[v] = seq
				seq++
			}
		} else {
			for _, c := range n.children {
				dfs(c)
			}
		}
		n.hi = seq
	}
	dfs(0)
}

// computeBorders marks every vertex with an edge leaving a tree node as a
// border of that node (walking up from its leaf until all neighbors are
// inside).
func (t *Tree) computeBorders() {
	for v := 0; v < t.g.NumNodes(); v++ {
		nbrs, _ := t.g.Neighbors(graph.NodeID(v))
		minSeq, maxSeq := t.leafSeq[v], t.leafSeq[v]
		for _, u := range nbrs {
			s := t.leafSeq[u]
			if s < minSeq {
				minSeq = s
			}
			if s > maxSeq {
				maxSeq = s
			}
		}
		idx := t.leafOf[v]
		for idx >= 0 {
			n := &t.nodes[idx]
			if minSeq >= n.lo && maxSeq < n.hi {
				break // all neighbors inside; ancestors contain them too
			}
			n.borders = append(n.borders, graph.NodeID(v))
			idx = n.parent
		}
	}
	// Populate X sets and border indexes. xpos is the build's only
	// vertex → X-index lookup, one graph-sized table reused by every node.
	xpos := make([]int32, t.g.NumNodes())
	for i := range t.nodes {
		n := &t.nodes[i]
		if n.isLeaf() {
			n.X = n.borders
		} else {
			for _, c := range n.children {
				t.nodes[c].xoff = int32(len(n.X))
				n.X = append(n.X, t.nodes[c].borders...)
			}
		}
		for j, v := range n.X {
			xpos[v] = int32(j)
		}
		n.borderX = make([]int32, len(n.borders))
		for j, b := range n.borders {
			xi := xpos[b]
			if int(xi) >= len(n.X) || n.X[xi] != b {
				panic(fmt.Sprintf("gtree: border %d of node %d missing from X", b, i))
			}
			n.borderX[j] = xi
		}
	}
}

// buildLeafMatrices stores each leaf's local subgraph and its
// border-to-vertex within-leaf distance matrix. Leaves are independent,
// so the pass fans out one leaf per task across the worker pool; each
// worker reuses its own Dijkstra heap.
func (t *Tree) buildLeafMatrices(workers int) {
	var leaves []int
	maxLeaf := 0
	for i := range t.nodes {
		if t.nodes[i].isLeaf() {
			leaves = append(leaves, i)
			maxLeaf = max(maxLeaf, len(t.nodes[i].verts))
		}
	}
	heaps := make([]*pqueue.IndexedHeap, workers)
	par.Do(workers, len(leaves), func(w, li int) {
		i := leaves[li]
		if heaps[w] == nil {
			heaps[w] = pqueue.NewIndexedHeap(maxLeaf)
		}
		n := &t.nodes[i]
		nv := len(n.verts)
		deg := make([]int32, nv)
		for pos, v := range n.verts {
			nbrs, _ := t.g.Neighbors(v)
			for _, u := range nbrs {
				if t.leafOf[u] == int32(i) {
					deg[pos]++
				}
			}
		}
		n.ladjStart = make([]int32, nv+1)
		for p := 0; p < nv; p++ {
			n.ladjStart[p+1] = n.ladjStart[p] + deg[p]
		}
		n.ladjNode = make([]int32, n.ladjStart[nv])
		n.ladjW = make([]float64, n.ladjStart[nv])
		cursor := make([]int32, nv)
		copy(cursor, n.ladjStart[:nv])
		for pos, v := range n.verts {
			nbrs, ws := t.g.Neighbors(v)
			for j, u := range nbrs {
				if t.leafOf[u] == int32(i) {
					n.ladjNode[cursor[pos]] = t.posInLeaf[u]
					n.ladjW[cursor[pos]] = ws[j]
					cursor[pos]++
				}
			}
		}
		n.mat = make([]float64, len(n.borders)*nv)
		for bi, b := range n.borders {
			localSSSP(n.ladjStart, n.ladjNode, n.ladjW, int(t.posInLeaf[b]), n.mat[bi*nv:(bi+1)*nv], heaps[w])
		}
	})
}

// assembleBottomUp computes, for every internal node, the |X|×|X| matrix
// of shortest-path distances *within the node's subgraph* by Dijkstra over
// the assembly graph: child border cliques (weighted by the child
// matrices) plus the original edges crossing between children. Matrix
// rows are independent single-source searches, so each node's row loop
// fans out across the worker pool (this also parallelizes the root, the
// single most expensive matrix).
func (t *Tree) assembleBottomUp(workers int) {
	maxX := 0
	for i := range t.nodes {
		maxX = max(maxX, len(t.nodes[i].X))
	}
	heaps := make([]*pqueue.IndexedHeap, workers)
	// xpos[v] is v's index in the current node's X, -1 outside it.
	xpos := make([]int32, t.g.NumNodes())
	for v := range xpos {
		xpos[v] = -1
	}
	// Creation order is top-down BFS, so reverse order visits children
	// before parents.
	for i := len(t.nodes) - 1; i >= 0; i-- {
		n := &t.nodes[i]
		if n.isLeaf() {
			continue
		}
		nx := len(n.X)
		adj := make([][]arc, nx)
		// Child border cliques.
		for _, ci := range n.children {
			c := &t.nodes[ci]
			for bi := range c.borders {
				xb := c.xoff + int32(bi)
				for bj, b2 := range c.borders {
					if bi == bj {
						continue
					}
					var w float64
					if c.isLeaf() {
						w = c.leafDist(bi, int(t.posInLeaf[b2]))
					} else {
						w = c.matDist(c.borderX[bi], c.borderX[bj])
					}
					if !math.IsInf(w, 1) {
						adj[xb] = append(adj[xb], arc{to: c.xoff + int32(bj), w: w})
					}
				}
			}
		}
		// Original edges crossing between different children of n.
		for xi, v := range n.X {
			xpos[v] = int32(xi)
		}
		for xi, v := range n.X {
			nbrs, ws := t.g.Neighbors(v)
			for j, u := range nbrs {
				xj := xpos[u]
				if xj < 0 {
					continue
				}
				if t.childOf(int32(i), v) != t.childOf(int32(i), u) {
					adj[xi] = append(adj[xi], arc{to: xj, w: ws[j]})
				}
			}
		}
		for _, v := range n.X {
			xpos[v] = -1
		}
		n.mat = make([]float64, nx*nx)
		par.Do(workers, nx, func(w, s int) {
			if heaps[w] == nil {
				heaps[w] = pqueue.NewIndexedHeap(maxX)
			}
			assemblySSSP(adj, s, n.mat[s*nx:(s+1)*nx], heaps[w])
		})
	}
}

type arc struct {
	to int32
	w  float64
}

// childOf returns which child of internal node idx contains vertex v
// (which must lie inside idx).
func (t *Tree) childOf(idx int32, v graph.NodeID) int32 {
	s := t.leafSeq[v]
	for _, c := range t.nodes[idx].children {
		if s >= t.nodes[c].lo && s < t.nodes[c].hi {
			return c
		}
	}
	panic(fmt.Sprintf("gtree: vertex %d outside node %d", v, idx))
}

// refineTopDown upgrades every internal matrix from within-subgraph to
// global distances: a path between two X-vertices of node n either stays
// inside n (the bottom-up value) or exits and re-enters through borders of
// n, whose global pairwise distances the (already refined) parent matrix
// provides.
// Rows of the through/refined matrices only read the (frozen) bottom-up
// matrix and the parent's already-refined matrix, so each row loop fans
// out across the worker pool; node order stays sequential because every
// node needs its parent refined first.
func (t *Tree) refineTopDown(workers int) {
	// Creation order is BFS, so forward order visits parents first. The
	// root's within-subgraph matrix is already global.
	for i := 1; i < len(t.nodes); i++ {
		n := &t.nodes[i]
		if n.isLeaf() {
			continue // leaf matrices deliberately stay within-leaf
		}
		p := &t.nodes[n.parent]
		nb := len(n.borders)
		if nb == 0 {
			continue // nothing leaves this node
		}
		nx := len(n.X)
		// through[x][bj] = min over exit borders b of within(x,b) +
		// global(b, borders[bj]).
		through := make([]float64, nx*nb)
		// n's borders occupy rows/columns [xoff, xoff+nb) of the parent.
		pmat, pnx, xoff := p.mat, len(p.X), int(n.xoff)
		par.Do(workers, nx, func(_, x int) {
			for bj := 0; bj < nb; bj++ {
				best := math.Inf(1)
				for bi := 0; bi < nb; bi++ {
					w := n.mat[x*nx+int(n.borderX[bi])]
					if math.IsInf(w, 1) {
						continue
					}
					g := pmat[(xoff+bi)*pnx+xoff+bj]
					if d := w + g; d < best {
						best = d
					}
				}
				through[x*nb+bj] = best
			}
		})
		refined := make([]float64, nx*nx)
		par.Do(workers, nx, func(_, x int) {
			for y := 0; y < nx; y++ {
				best := n.mat[x*nx+y]
				for bj := 0; bj < nb; bj++ {
					re := n.mat[y*nx+int(n.borderX[bj])] // within(y, border bj)
					if math.IsInf(re, 1) {
						continue
					}
					if d := through[x*nb+bj] + re; d < best {
						best = d
					}
				}
				refined[x*nx+y] = best
			}
		})
		n.mat = refined
	}
}

// localSSSP runs Dijkstra over a local CSR graph, writing each vertex's
// distance into dist as it settles (Inf for unreachable).
func localSSSP(start, nodes []int32, ws []float64, src int, dist []float64, h *pqueue.IndexedHeap) {
	fillInf(dist[:len(start)-1])
	h.Reset()
	h.Update(int32(src), 0)
	for h.Len() > 0 {
		v, dv := h.Pop()
		dist[v] = dv
		for e := start[v]; e < start[v+1]; e++ {
			h.Update(nodes[e], dv+ws[e])
		}
	}
}

// assemblySSSP runs Dijkstra over an adjacency-list assembly graph,
// writing each vertex's distance into dist as it settles.
func assemblySSSP(adj [][]arc, src int, dist []float64, h *pqueue.IndexedHeap) {
	fillInf(dist[:len(adj)])
	h.Reset()
	h.Update(int32(src), 0)
	for h.Len() > 0 {
		v, dv := h.Pop()
		dist[v] = dv
		for _, a := range adj[v] {
			h.Update(a.to, dv+a.w)
		}
	}
}

// Stats reports the index shape and estimated footprint for the paper's
// index-cost experiments (Fig. 9).
type Stats struct {
	TreeNodes   int
	Leaves      int
	Height      int
	Borders     int // total borders across nodes
	MatrixCells int64
	MemoryBytes int64
}

// Stats walks the tree and summarizes it.
func (t *Tree) Stats() Stats {
	var s Stats
	s.TreeNodes = len(t.nodes)
	for i := range t.nodes {
		n := &t.nodes[i]
		if int(n.depth)+1 > s.Height {
			s.Height = int(n.depth) + 1
		}
		if n.isLeaf() {
			s.Leaves++
		}
		s.Borders += len(n.borders)
		s.MatrixCells += int64(len(n.mat))
	}
	// Heap footprint: the two slabs plus node headers and the three
	// graph-sized vertex tables. For an mmap-loaded tree the slabs and
	// vertex tables live in the page cache (reported by MappedBytes), so
	// only the node headers — rebuilt on the heap at load — count here.
	s.MemoryBytes = int64(len(t.nodes)) * int64(unsafe.Sizeof(node{}))
	if !t.Mapped() {
		s.MemoryBytes += int64(len(t.fslab))*8 + int64(len(t.islab))*4 +
			int64(t.g.NumNodes())*12 // leafOf/posInLeaf/leafSeq
	}
	return s
}
