package gtree

import (
	"math"

	"fannr/internal/graph"
	"fannr/internal/pqueue"
)

// Querier evaluates shortest-path distance queries against a Tree. It
// owns reusable scratch buffers; create one per goroutine.
type Querier struct {
	t    *Tree
	h    *localHeap
	dist []float64 // within-leaf Dijkstra scratch
	// Dist's two climbing vectors; each holds two max-|borders| halves
	// that upVector ping-pongs between.
	cur, next []float64

	// Per-source memo shared by DistBatch and Start/Next. vecs[n] holds the
	// global distances from source bu to the borders of tree node n (nil
	// until borderVec is asked for it), backed by the arena; touched lists
	// the filled slots so a new source clears only those. While the source
	// repeats, vectors accumulate across calls, so an incremental caller
	// (IER resolving its candidates one at a time) pays each tree node at
	// most once.
	vecs    [][]float64
	touched []int32
	arena   []float64
	bu      graph.NodeID // memoized source, -1 for none
	chain   []int32      // chain[d]: bu's ancestor at depth d, -1 below its leaf
	bsrc    []float64    // within-source-leaf distance scratch
	bsrcOK  bool         // bsrc holds the distances for source bu

	// The nearest-object search: its heap (tree node n as n, object o as
	// -1-o), the object set it runs over and the node it opens next (-1
	// for none).
	pq   *pqueue.Heap[int32]
	objs *ObjectSet
	due  int32
}

// NewQuerier returns a querier with scratch sized to the tree.
func (t *Tree) NewQuerier() *Querier {
	maxLeaf, maxB, height := 0, 0, 0
	for i := range t.nodes {
		n := &t.nodes[i]
		if n.isLeaf() && len(n.verts) > maxLeaf {
			maxLeaf = len(n.verts)
		}
		maxB = max(maxB, len(n.borders))
		height = max(height, int(n.depth)+1)
	}
	return &Querier{
		t:     t,
		h:     newLocalHeap(maxLeaf),
		dist:  make([]float64, maxLeaf),
		cur:   make([]float64, 2*maxB),
		next:  make([]float64, 2*maxB),
		vecs:  make([][]float64, len(t.nodes)),
		arena: make([]float64, 0, 1024),
		bu:    -1,
		chain: make([]int32, height),
		bsrc:  make([]float64, maxLeaf),
		pq:    pqueue.NewHeap[int32](16),
	}
}

// Graph returns the graph the querier's tree is built over.
func (q *Querier) Graph() *graph.Graph { return q.t.g }

// relax folds one min-plus row into out: out[j] = min(out[j], d+row[j]).
// Every query kernel below is a sequence of these over contiguous matrix
// rows; which rows and which column range is pure offset arithmetic.
func relax(out []float64, d float64, row []float64) {
	row = row[:len(out)]
	for j, w := range row {
		if s := d + w; s < out[j] {
			out[j] = s
		}
	}
}

// relaxCols is relax over the scattered columns cols of row.
func relaxCols(out []float64, d float64, row []float64, cols []int32) {
	cols = cols[:len(out)]
	for j, c := range cols {
		if s := d + row[c]; s < out[j] {
			out[j] = s
		}
	}
}

func fillInf(v []float64) {
	for i := range v {
		v[i] = math.Inf(1)
	}
}

// Dist returns the exact global shortest-path distance between u and v
// (+Inf when disconnected).
func (q *Querier) Dist(u, v graph.NodeID) float64 {
	if u == v {
		return 0
	}
	t := q.t
	lu, lv := t.leafOf[u], t.leafOf[v]
	if lu == lv {
		return q.sameLeafDist(lu, u, v)
	}
	lca := t.lca(lu, lv)
	vu, cu := q.upVector(u, lca, q.cur)
	vv, cv := q.upVector(v, lca, q.next)
	// Join through the LCA matrix: rows of cu's border block, columns of
	// cv's.
	n := &t.nodes[lca]
	nx := len(n.X)
	ru, cvOff := int(t.nodes[cu].xoff), int(t.nodes[cv].xoff)
	best := math.Inf(1)
	for i, du := range vu {
		if math.IsInf(du, 1) {
			continue
		}
		row := n.mat[(ru+i)*nx+cvOff:][:len(vv)]
		for j, w := range row {
			if d := du + w + vv[j]; d < best {
				best = d
			}
		}
	}
	return best
}

// sameLeafDist handles u,v in one leaf: the better of the within-leaf path
// and a detour leaving and re-entering through the leaf borders (global
// border-to-border distances come from the parent's refined matrix).
func (q *Querier) sameLeafDist(leaf int32, u, v graph.NodeID) float64 {
	t := q.t
	n := &t.nodes[leaf]
	pu, pv := int(t.posInLeaf[u]), int(t.posInLeaf[v])
	localSSSP(n.ladjStart, n.ladjNode, n.ladjW, pu, q.dist[:len(n.verts)], q.h)
	best := q.dist[pv]
	if n.parent < 0 {
		return best // the whole graph is one leaf
	}
	p := &t.nodes[n.parent]
	nx, xoff := len(p.X), int(n.xoff)
	for bi := range n.borders {
		du := n.leafDist(bi, pu)
		if math.IsInf(du, 1) {
			continue
		}
		row := p.mat[(xoff+bi)*nx+xoff:][:len(n.borders)]
		for bj, w := range row {
			dv := n.leafDist(bj, pv)
			if math.IsInf(dv, 1) {
				continue
			}
			if d := du + w + dv; d < best {
				best = d
			}
		}
	}
	return best
}

// leafBase fills out with the global distances from the vertex at
// position pos of leaf to the leaf's borders: leave through any border b'
// within the leaf, then travel globally b' → b via the parent matrix,
// where the leaf's borders are rows and columns [xoff, xoff+|borders|).
func (t *Tree) leafBase(leaf *node, pos int, out []float64) {
	p := &t.nodes[leaf.parent]
	nx, xoff := len(p.X), int(leaf.xoff)
	fillInf(out)
	for bj := range leaf.borders {
		if w := leaf.leafDist(bj, pos); !math.IsInf(w, 1) {
			relax(out, w, p.mat[(xoff+bj)*nx+xoff:])
		}
	}
}

// climb fills out with the distances to the borders of p, given the
// distances vc to the borders of its child c: one row of p's matrix per
// finite child border, gathered at p's border columns.
func climb(p, c *node, vc, out []float64) {
	nx, xoff := len(p.X), int(c.xoff)
	fillInf(out)
	for bi, vb := range vc {
		if !math.IsInf(vb, 1) {
			relaxCols(out, vb, p.mat[(xoff+bi)*nx:][:nx], p.borderX)
		}
	}
}

// upVector computes global distances from u to the borders of the child of
// lca that contains u, climbing the leaf-to-lca chain. buf provides two
// halves of scratch; the returned slice aliases one of them. The second
// return is the child-of-lca tree node index.
func (q *Querier) upVector(u graph.NodeID, lca int32, buf []float64) ([]float64, int32) {
	t := q.t
	ni := t.leafOf[u]
	n := &t.nodes[ni]
	a, b := buf[:len(buf)/2], buf[len(buf)/2:]
	cur := a[:len(n.borders)]
	t.leafBase(n, int(t.posInLeaf[u]), cur)
	for n.parent != lca {
		p := &t.nodes[n.parent]
		out := b[:len(p.borders)]
		climb(p, n, cur, out)
		a, b = b, a
		cur, ni, n = out, n.parent, p
	}
	return cur, ni
}

// setSource makes u the memoized batch source, dropping the vectors of
// any other.
func (q *Querier) setSource(u graph.NodeID) {
	if q.bu == u {
		return
	}
	for _, ni := range q.touched {
		q.vecs[ni] = nil
	}
	q.touched = q.touched[:0]
	q.arena = q.arena[:0]
	q.bsrcOK = false
	q.bu = u
	t := q.t
	ni := t.leafOf[u]
	for d := int(t.nodes[ni].depth) + 1; d < len(q.chain); d++ {
		q.chain[d] = -1
	}
	for ; ni >= 0; ni = t.nodes[ni].parent {
		q.chain[t.nodes[ni].depth] = ni
	}
}

// carve returns an n-element scratch vector from the arena. Contents are
// dirty; callers must write every element they read. When the arena block
// fills, a larger one replaces it — vectors carved earlier keep pointing
// at the old block, which stays valid, so steady-state batches allocate
// nothing once the capacity stabilizes.
func (q *Querier) carve(n int) []float64 {
	if len(q.arena)+n > cap(q.arena) {
		q.arena = make([]float64, 0, max(2*cap(q.arena), n))
	}
	s := q.arena[len(q.arena) : len(q.arena)+n : len(q.arena)+n]
	q.arena = q.arena[:len(q.arena)+n]
	return s
}

// srcLocalDists returns the within-leaf distances from the memoized
// source across its own leaf, computing them on first use.
func (q *Querier) srcLocalDists() []float64 {
	t := q.t
	leaf := &t.nodes[t.leafOf[q.bu]]
	out := q.bsrc[:len(leaf.verts)]
	if !q.bsrcOK {
		localSSSP(leaf.ladjStart, leaf.ladjNode, leaf.ladjW, int(t.posInLeaf[q.bu]), out, q.h)
		q.bsrcOK = true
	}
	return out
}

// borderVec returns the global distances from the memoized source to the
// borders of tree node ni, computed on first request from exactly one
// other node's vector and nothing wider than ni's own border block:
//
//   - the source leaf starts the chain (leafBase);
//   - an ancestor of the source climbs from its chain child, copying the
//     borders it shares with that child;
//   - a node hanging off the chain is reached across its parent's matrix
//     from the chain child beside it: rows of the sibling's border block,
//     columns of its own — both contiguous;
//   - any other node descends from its parent: rows of the parent's
//     borders, columns of its own block, and the parent's borders that
//     fall inside that block overwritten with their known values.
//
// The caller decides which nodes matter — the nearest-object search asks
// only for children whose occurrence count is non-zero, DistBatch only
// for target leaves — so no vector over a whole X set is ever built.
func (q *Querier) borderVec(ni int32) []float64 {
	if v := q.vecs[ni]; v != nil {
		return v
	}
	t := q.t
	n := &t.nodes[ni]
	nb := len(n.borders)
	var out []float64
	switch {
	case q.chain[n.depth] == ni && n.isLeaf():
		out = q.carve(nb)
		t.leafBase(n, int(t.posInLeaf[q.bu]), out)
	case q.chain[n.depth] == ni:
		ci := q.chain[n.depth+1]
		c := &t.nodes[ci]
		vc := q.borderVec(ci)
		out = q.carve(nb)
		climb(n, c, vc, out)
		for j, bx := range n.borderX {
			if k := int(bx - c.xoff); k >= 0 && k < len(vc) {
				out[j] = vc[k]
			}
		}
	case q.chain[n.depth-1] == n.parent:
		p := &t.nodes[n.parent]
		si := q.chain[n.depth]
		nx, row0, col0 := len(p.X), int(t.nodes[si].xoff), int(n.xoff)
		vs := q.borderVec(si)
		out = q.carve(nb)
		fillInf(out)
		for bi, vb := range vs {
			if !math.IsInf(vb, 1) {
				relax(out, vb, p.mat[(row0+bi)*nx+col0:])
			}
		}
	default:
		p := &t.nodes[n.parent]
		nx, col0 := len(p.X), int(n.xoff)
		vp := q.borderVec(n.parent)
		out = q.carve(nb)
		fillInf(out)
		for bi, vb := range vp {
			if !math.IsInf(vb, 1) {
				relax(out, vb, p.mat[int(p.borderX[bi])*nx+col0:])
			}
		}
		for bi, bx := range p.borderX {
			if k := int(bx - n.xoff); k >= 0 && k < nb {
				out[k] = vp[bi]
			}
		}
	}
	q.vecs[ni] = out
	q.touched = append(q.touched, ni)
	return out
}

// leafTargetDist folds the border vector vec of leaf n into the distance
// to the leaf vertex at position pos.
func leafTargetDist(n *node, vec []float64, pos int) float64 {
	best := math.Inf(1)
	for bi, vb := range vec {
		if !math.IsInf(vb, 1) {
			if d := vb + n.leafDist(bi, pos); d < best {
				best = d
			}
		}
	}
	return best
}

// DistBatch computes global shortest-path distances from u to every
// target (+Inf when disconnected), writing out[i] for targets[i]. The
// border vectors from u are shared by all targets and memoized while u
// repeats: each target then costs a fold over its own leaf's border
// vector, instead of the two upVector climbs plus border-pair double loop
// that per-pair Dist pays. Like Start/Next this relies on the refined (global)
// matrices. len(out) must be at least len(targets); warm Queriers
// allocate nothing.
func (q *Querier) DistBatch(u graph.NodeID, targets []graph.NodeID, out []float64) {
	if len(targets) == 0 {
		return
	}
	_ = out[len(targets)-1]
	t := q.t
	q.setSource(u)
	if t.nodes[0].isLeaf() {
		// Degenerate single-leaf tree: the leaf subgraph is the graph.
		local := q.srcLocalDists()
		for i, v := range targets {
			out[i] = local[t.posInLeaf[v]]
		}
		return
	}
	srcLeaf := t.leafOf[u]
	for i, v := range targets {
		if v == u {
			out[i] = 0
			continue
		}
		lv := t.leafOf[v]
		pos := int(t.posInLeaf[v])
		best := leafTargetDist(&t.nodes[lv], q.borderVec(lv), pos)
		if lv == srcLeaf {
			if w := q.srcLocalDists()[pos]; w < best {
				best = w
			}
		}
		out[i] = best
	}
}

// lca returns the lowest common ancestor of two tree nodes.
func (t *Tree) lca(a, b int32) int32 {
	for t.nodes[a].depth > t.nodes[b].depth {
		a = t.nodes[a].parent
	}
	for t.nodes[b].depth > t.nodes[a].depth {
		b = t.nodes[b].parent
	}
	for a != b {
		a = t.nodes[a].parent
		b = t.nodes[b].parent
	}
	return a
}
