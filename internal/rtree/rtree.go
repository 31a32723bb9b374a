// Package rtree implements the 2-D R-tree used by the IER algorithms of
// fannr: STR bulk loading and incremental (distance-browsing)
// nearest-neighbor queries, plus read access to the node structure so
// that higher layers can run custom best-first traversals (the IER-kNN
// framework orders entries by the flexible Euclidean aggregate g^ε_φ,
// not by plain mindist).
package rtree

import (
	"cmp"
	"math"
	"slices"

	"fannr/internal/pqueue"
)

// Rect is an axis-aligned minimum bounding rectangle.
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// EmptyRect is the identity for Union.
func EmptyRect() Rect {
	return Rect{
		MinX: math.Inf(1), MinY: math.Inf(1),
		MaxX: math.Inf(-1), MaxY: math.Inf(-1),
	}
}

// PointRect returns the degenerate rectangle covering one point.
func PointRect(x, y float64) Rect { return Rect{x, y, x, y} }

// Union returns the smallest rectangle covering both r and o.
func (r Rect) Union(o Rect) Rect {
	return Rect{
		MinX: math.Min(r.MinX, o.MinX),
		MinY: math.Min(r.MinY, o.MinY),
		MaxX: math.Max(r.MaxX, o.MaxX),
		MaxY: math.Max(r.MaxY, o.MaxY),
	}
}

// Area returns the rectangle's area.
func (r Rect) Area() float64 { return (r.MaxX - r.MinX) * (r.MaxY - r.MinY) }

// MinDist returns the minimum Euclidean distance from (x,y) to r — the
// mdist(b, q) bound of the paper (0 when the point is inside).
func (r Rect) MinDist(x, y float64) float64 {
	dx := 0.0
	if x < r.MinX {
		dx = r.MinX - x
	} else if x > r.MaxX {
		dx = x - r.MaxX
	}
	dy := 0.0
	if y < r.MinY {
		dy = r.MinY - y
	} else if y > r.MaxY {
		dy = y - r.MaxY
	}
	return math.Hypot(dx, dy)
}

// Point is an indexed 2-D point carrying an application id (a node id in
// fannr).
type Point struct {
	X, Y float64
	ID   int32
}

// Node is an R-tree node. Leaves hold points; internal nodes hold child
// nodes. The structure is exposed read-only for custom traversals.
type Node struct {
	rect     Rect
	children []*Node
	points   []Point
	leaf     bool
}

// Rect returns the node's MBR.
func (n *Node) Rect() Rect { return n.rect }

// IsLeaf reports whether the node stores points.
func (n *Node) IsLeaf() bool { return n.leaf }

// Children returns the child nodes of an internal node (nil for leaves).
// The slice is owned by the tree and must not be modified.
func (n *Node) Children() []*Node { return n.children }

// Points returns the points of a leaf (nil for internal nodes). The slice
// is owned by the tree and must not be modified.
func (n *Node) Points() []Point { return n.points }

// Tree is an R-tree over 2-D points.
type Tree struct {
	root *Node
	size int
}

// DefaultFanout matches the paper's experimental setting (f = 4).
const DefaultFanout = 4

// Len reports the number of indexed points.
func (t *Tree) Len() int { return t.size }

// Root returns the root node for custom traversals.
func (t *Tree) Root() *Node { return t.root }

// BulkLoad builds a tree from pts using Sort-Tile-Recursive packing, which
// yields near-optimal leaves for static point sets. The input slice is
// reordered in place.
func BulkLoad(pts []Point, fanout int) *Tree {
	if fanout < 2 {
		fanout = DefaultFanout
	}
	t := &Tree{size: len(pts)}
	if len(pts) == 0 {
		t.root = &Node{leaf: true, rect: EmptyRect()}
		return t
	}
	leaves := strPack(pts, fanout)
	level := leaves
	for len(level) > 1 {
		level = packNodes(level, fanout)
	}
	t.root = level[0]
	return t
}

// The packing sorts use total orders — coordinate, then point id for
// points; coordinate, then input position (a stable sort) for nodes — so
// the packed tree is a function of the point set alone, not of how a
// sort treats equal coordinates. They are package-level funcs so the
// per-request BulkLoad over P allocates no closures.
func cmpPointX(a, b Point) int {
	if c := cmp.Compare(a.X, b.X); c != 0 {
		return c
	}
	return cmp.Compare(a.ID, b.ID)
}

func cmpPointY(a, b Point) int {
	if c := cmp.Compare(a.Y, b.Y); c != 0 {
		return c
	}
	return cmp.Compare(a.ID, b.ID)
}

// Nodes order by MBR centre; twice the centre orders the same.
func cmpCenterX(a, b *Node) int {
	return cmp.Compare(a.rect.MinX+a.rect.MaxX, b.rect.MinX+b.rect.MaxX)
}

func cmpCenterY(a, b *Node) int {
	return cmp.Compare(a.rect.MinY+a.rect.MaxY, b.rect.MinY+b.rect.MaxY)
}

func strPack(pts []Point, fanout int) []*Node {
	nLeaves := (len(pts) + fanout - 1) / fanout
	nSlices := int(math.Ceil(math.Sqrt(float64(nLeaves))))
	sliceSize := nSlices * fanout
	slices.SortFunc(pts, cmpPointX)
	var leaves []*Node
	for s := 0; s < len(pts); s += sliceSize {
		e := s + sliceSize
		if e > len(pts) {
			e = len(pts)
		}
		slice := pts[s:e]
		slices.SortFunc(slice, cmpPointY)
		for l := 0; l < len(slice); l += fanout {
			le := l + fanout
			if le > len(slice) {
				le = len(slice)
			}
			leaf := &Node{leaf: true, points: append([]Point(nil), slice[l:le]...)}
			leaf.recompute()
			leaves = append(leaves, leaf)
		}
	}
	return leaves
}

func packNodes(nodes []*Node, fanout int) []*Node {
	nParents := (len(nodes) + fanout - 1) / fanout
	nSlices := int(math.Ceil(math.Sqrt(float64(nParents))))
	sliceSize := nSlices * fanout
	slices.SortStableFunc(nodes, cmpCenterX)
	var parents []*Node
	for s := 0; s < len(nodes); s += sliceSize {
		e := s + sliceSize
		if e > len(nodes) {
			e = len(nodes)
		}
		slice := nodes[s:e]
		slices.SortStableFunc(slice, cmpCenterY)
		for l := 0; l < len(slice); l += fanout {
			le := l + fanout
			if le > len(slice) {
				le = len(slice)
			}
			p := &Node{children: append([]*Node(nil), slice[l:le]...)}
			p.recompute()
			parents = append(parents, p)
		}
	}
	return parents
}

func (n *Node) recompute() {
	r := EmptyRect()
	if n.leaf {
		for _, p := range n.points {
			r = r.Union(PointRect(p.X, p.Y))
		}
	} else {
		for _, c := range n.children {
			r = r.Union(c.rect)
		}
	}
	n.rect = r
}

// IncNN starts a distance-browsing (Hjaltason–Samet) incremental
// nearest-neighbor scan from (x,y). Each Next call returns the next
// nearest point; the iterator is the backbone of every IER algorithm in
// fannr.
func (t *Tree) IncNN(x, y float64) *IncNN {
	it := &IncNN{x: x, y: y, h: pqueue.NewHeap[incEntry](16)}
	if t.size > 0 {
		it.h.Push(t.root.rect.MinDist(x, y), incEntry{node: t.root})
	}
	return it
}

type incEntry struct {
	node  *Node // nil for point entries
	point Point
}

// IncNN is an incremental nearest-neighbor iterator. The zero value is
// usable after Reset; hot paths keep one per goroutine and Reset it per
// scan so the frontier heap's storage is reused allocation-free.
type IncNN struct {
	x, y float64
	h    *pqueue.Heap[incEntry]
}

// Reset re-aims the iterator at (x, y) over t, retaining the frontier
// heap's storage.
func (it *IncNN) Reset(t *Tree, x, y float64) {
	it.x, it.y = x, y
	if it.h == nil {
		it.h = pqueue.NewHeap[incEntry](16)
	} else {
		it.h.Reset()
	}
	if t.size > 0 {
		it.h.Push(t.root.rect.MinDist(x, y), incEntry{node: t.root})
	}
}

// Next returns the next nearest point and its Euclidean distance. ok is
// false when the tree is exhausted.
func (it *IncNN) Next() (Point, float64, bool) {
	for it.h.Len() > 0 {
		e := it.h.Pop()
		if e.Value.node == nil {
			return e.Value.point, e.Key, true
		}
		n := e.Value.node
		if n.leaf {
			for _, p := range n.points {
				it.h.Push(math.Hypot(p.X-it.x, p.Y-it.y), incEntry{point: p})
			}
		} else {
			for _, c := range n.children {
				it.h.Push(c.rect.MinDist(it.x, it.y), incEntry{node: c})
			}
		}
	}
	return Point{}, 0, false
}

// Peek returns the lower bound on the distance of the next point without
// consuming it (Inf when exhausted).
func (it *IncNN) Peek() float64 {
	for it.h.Len() > 0 {
		e := it.h.Min()
		if e.Value.node == nil {
			return e.Key
		}
		// Expand nodes until a point surfaces at the top.
		it.h.Pop()
		n := e.Value.node
		if n.leaf {
			for _, p := range n.points {
				it.h.Push(math.Hypot(p.X-it.x, p.Y-it.y), incEntry{point: p})
			}
		} else {
			for _, c := range n.children {
				it.h.Push(c.rect.MinDist(it.x, it.y), incEntry{node: c})
			}
		}
	}
	return math.Inf(1)
}

// Stats summarizes the tree shape for the index-cost experiments
// (Appendix A of the paper).
type Stats struct {
	Nodes, Leaves, Height int
	MemoryBytes           int64
}

// Stats walks the tree and reports its shape and estimated footprint.
func (t *Tree) Stats() Stats {
	var s Stats
	var rec func(n *Node, depth int)
	rec = func(n *Node, depth int) {
		s.Nodes++
		if depth > s.Height {
			s.Height = depth
		}
		s.MemoryBytes += 40 // rect + headers
		if n.leaf {
			s.Leaves++
			s.MemoryBytes += int64(len(n.points)) * 20
			return
		}
		s.MemoryBytes += int64(len(n.children)) * 8
		for _, c := range n.children {
			rec(c, depth+1)
		}
	}
	rec(t.root, 1)
	return s
}
