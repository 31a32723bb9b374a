// Package ch implements Contraction Hierarchies (Geisberger et al.,
// 2008), the hierarchical shortest-path index the paper's related-work
// section discusses as the low-memory alternative to G-tree and PHL: "CH
// has a low memory overhead, but it has to traverse a large number of
// nodes when objects are relatively dispersed in the graph."
//
// Preprocessing contracts nodes in importance order (lazy edge-difference
// heuristic), inserting shortcuts that preserve shortest-path distances
// among the remaining nodes. Queries run a bidirectional Dijkstra that
// only ever climbs upward in the hierarchy, settling a tiny fraction of
// the graph.
//
// fannr uses the index as yet another distance Oracle, giving the
// algorithm suite two extra engines (CH and IER-CH) beyond the paper's
// Table I.
package ch

import (
	"math"
	"sort"

	"fannr/internal/graph"
	"fannr/internal/par"
	"fannr/internal/pqueue"
)

// Options tunes preprocessing.
type Options struct {
	// WitnessSettleLimit bounds each witness search (default 64). Lower
	// limits speed up preprocessing but admit more (harmless) shortcuts.
	WitnessSettleLimit int
	// Workers fans the initial-priority pass — one witness-search-backed
	// contraction simulation per node, the dominant O(|V|) cost before
	// the sequential lazy contraction loop — out across a worker pool,
	// one witness searcher per worker (0 = GOMAXPROCS, 1 = sequential).
	// The resulting hierarchy is identical for every worker count: each
	// simulation only reads the untouched initial adjacency.
	Workers int
}

// Index is an immutable contraction hierarchy. It is safe for concurrent
// readers; use one Querier per goroutine.
type Index struct {
	rank []int32 // node -> contraction order (higher = more important)
	// Upward graph in CSR form: for each node, edges to strictly
	// higher-ranked neighbors (originals + shortcuts).
	upStart []int32
	upNode  []graph.NodeID
	upW     []float64
	n       int
	// shortcuts counts inserted shortcut edges (for index-size reporting).
	shortcuts int
	// g is the graph Build contracted; nil for an index Read from a file,
	// which does not carry it.
	g *graph.Graph
}

type arc struct {
	to graph.NodeID
	w  float64
}

// Build contracts g into a hierarchy.
func Build(g *graph.Graph, opts Options) (*Index, error) {
	if opts.WitnessSettleLimit <= 0 {
		opts.WitnessSettleLimit = 64
	}
	n := g.NumNodes()
	adj := make([][]arc, n)
	for u := 0; u < n; u++ {
		nbrs, ws := g.Neighbors(graph.NodeID(u))
		adj[u] = make([]arc, len(nbrs))
		for i := range nbrs {
			adj[u][i] = arc{to: nbrs[i], w: ws[i]}
		}
	}
	contracted := make([]bool, n)
	deleted := make([]int32, n) // contracted-neighbor counters
	rank := make([]int32, n)

	ws := newWitnessSearcher(n, opts.WitnessSettleLimit)
	simulate := func(v graph.NodeID) (edgeDiff int, shortcuts []shortcut) {
		return simulateContraction(adj, contracted, v, ws)
	}

	// Initial priorities. Nothing is contracted yet, so the simulations
	// are independent reads of the initial adjacency — fan them out with
	// one witness searcher per worker. The heap is filled sequentially
	// afterwards to keep its internal layout identical to a 1-worker run.
	workers := par.Resolve(opts.Workers)
	prio := make([]float64, n)
	searchers := make([]*witnessSearcher, workers)
	searchers[0] = ws
	par.Do(workers, n, func(w, v int) {
		if searchers[w] == nil {
			searchers[w] = newWitnessSearcher(n, opts.WitnessSettleLimit)
		}
		diff, _ := simulateContraction(adj, contracted, graph.NodeID(v), searchers[w])
		prio[v] = float64(diff)
	})
	h := pqueue.NewIndexedHeap(n)
	for v := 0; v < n; v++ {
		h.Update(int32(v), prio[v])
	}
	ix := &Index{rank: rank, n: n, g: g}
	nextRank := int32(0)
	for h.Len() > 0 {
		v, key := h.Pop()
		// Lazy re-evaluation: the neighborhood may have changed.
		diff, shortcuts := simulate(v)
		priority := float64(diff) + float64(deleted[v])
		if h.Len() > 0 {
			if _, minKey := h.Min(); priority > math.Max(key, minKey) {
				h.Update(v, priority)
				continue
			}
		}
		// Contract v.
		contracted[v] = true
		rank[v] = nextRank
		nextRank++
		for _, sc := range shortcuts {
			if addOrImprove(adj, sc.a, sc.b, sc.w) {
				ix.shortcuts++
			}
			addOrImprove(adj, sc.b, sc.a, sc.w)
		}
		for _, a := range adj[v] {
			if !contracted[a.to] {
				deleted[a.to]++
			}
		}
	}

	ix.buildUpwardGraph(adj)
	return ix, nil
}

type shortcut struct {
	a, b graph.NodeID
	w    float64
}

// addOrImprove inserts arc a→b with weight w, or lowers an existing arc's
// weight. Keeping adjacency lists duplicate-free bounds the degree growth
// during contraction (without it, repeated shortcuts between the same
// endpoints cascade on dense graphs). It reports whether a new arc was
// inserted.
func addOrImprove(adj [][]arc, a, b graph.NodeID, w float64) bool {
	for i := range adj[a] {
		if adj[a][i].to == b {
			if w < adj[a][i].w {
				adj[a][i].w = w
			}
			return false
		}
	}
	adj[a] = append(adj[a], arc{to: b, w: w})
	return true
}

// simulateContraction computes the shortcuts contracting v would need and
// the resulting edge difference.
func simulateContraction(adj [][]arc, contracted []bool, v graph.NodeID, ws *witnessSearcher) (int, []shortcut) {
	// Collect uncontracted neighbors, deduplicated by minimum weight
	// (original parallel edges may survive in the lists).
	var nbrs []arc
	for _, a := range adj[v] {
		if contracted[a.to] || a.to == v {
			continue
		}
		dup := false
		for i := range nbrs {
			if nbrs[i].to == a.to {
				if a.w < nbrs[i].w {
					nbrs[i].w = a.w
				}
				dup = true
				break
			}
		}
		if !dup {
			nbrs = append(nbrs, a)
		}
	}
	var out []shortcut
	for i := 0; i < len(nbrs); i++ {
		for j := i + 1; j < len(nbrs); j++ {
			a, b := nbrs[i], nbrs[j]
			if a.to == b.to {
				continue
			}
			via := a.w + b.w
			if !ws.hasWitness(adj, contracted, v, a.to, b.to, via) {
				out = append(out, shortcut{a: a.to, b: b.to, w: via})
			}
		}
	}
	return len(out) - len(nbrs), out
}

// witnessSearcher runs bounded local Dijkstra searches that try to find a
// path a→b avoiding v no longer than the candidate shortcut.
type witnessSearcher struct {
	h     *pqueue.IndexedHeap
	dist  []float64
	stamp []uint32
	epoch uint32
	limit int
}

func newWitnessSearcher(n, limit int) *witnessSearcher {
	return &witnessSearcher{
		h:     pqueue.NewIndexedHeap(n),
		dist:  make([]float64, n),
		stamp: make([]uint32, n),
		limit: limit,
	}
}

func (ws *witnessSearcher) hasWitness(adj [][]arc, contracted []bool, v, from, to graph.NodeID, maxDist float64) bool {
	ws.epoch++
	if ws.epoch == 0 {
		for i := range ws.stamp {
			ws.stamp[i] = 0
		}
		ws.epoch = 1
	}
	ws.h.Reset()
	ws.stamp[from] = ws.epoch
	ws.dist[from] = 0
	ws.h.Update(from, 0)
	settles := 0
	for ws.h.Len() > 0 && settles < ws.limit {
		u, du := ws.h.Pop()
		if du > maxDist {
			return false
		}
		if u == to {
			return du <= maxDist
		}
		settles++
		for _, a := range adj[u] {
			if a.to == v || contracted[a.to] {
				continue
			}
			alt := du + a.w
			if alt > maxDist {
				continue
			}
			if ws.stamp[a.to] != ws.epoch || alt < ws.dist[a.to] {
				ws.stamp[a.to] = ws.epoch
				ws.dist[a.to] = alt
				ws.h.Update(a.to, alt)
			}
		}
	}
	return false
}

// buildUpwardGraph converts the final adjacency (originals + shortcuts)
// into the CSR upward graph, deduplicating parallel edges by minimum
// weight.
func (ix *Index) buildUpwardGraph(adj [][]arc) {
	type edge struct {
		from, to graph.NodeID
		w        float64
	}
	var edges []edge
	for u := 0; u < ix.n; u++ {
		for _, a := range adj[u] {
			if ix.rank[a.to] > ix.rank[u] {
				edges = append(edges, edge{from: graph.NodeID(u), to: a.to, w: a.w})
			}
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].from != edges[j].from {
			return edges[i].from < edges[j].from
		}
		if edges[i].to != edges[j].to {
			return edges[i].to < edges[j].to
		}
		return edges[i].w < edges[j].w
	})
	dedup := edges[:0]
	for _, e := range edges {
		if n := len(dedup); n > 0 && dedup[n-1].from == e.from && dedup[n-1].to == e.to {
			continue
		}
		dedup = append(dedup, e)
	}
	ix.upStart = make([]int32, ix.n+1)
	for _, e := range dedup {
		ix.upStart[e.from+1]++
	}
	for v := 0; v < ix.n; v++ {
		ix.upStart[v+1] += ix.upStart[v]
	}
	ix.upNode = make([]graph.NodeID, len(dedup))
	ix.upW = make([]float64, len(dedup))
	cursor := make([]int32, ix.n)
	copy(cursor, ix.upStart[:ix.n])
	for _, e := range dedup {
		ix.upNode[cursor[e.from]] = e.to
		ix.upW[cursor[e.from]] = e.w
		cursor[e.from]++
	}
}

// Shortcuts returns the number of shortcut edges the hierarchy added.
func (ix *Index) Shortcuts() int { return ix.shortcuts }

// MemoryBytes estimates the index footprint.
func (ix *Index) MemoryBytes() int64 {
	return int64(len(ix.upNode))*12 + int64(ix.n)*8
}

// Querier answers distance queries over the hierarchy. Not safe for
// concurrent use; create one per goroutine.
type Querier struct {
	ix     *Index
	fh, bh *pqueue.IndexedHeap
	fd, bd []float64
	fs, bs []uint32
	epoch  uint32
	// nodesScanned counts settled nodes since construction, matching the
	// sp engines' NodesScanned so observability can attribute CH work.
	nodesScanned int64
}

// Graph returns the graph the index was built from, or nil when it was
// read from a file.
func (q *Querier) Graph() *graph.Graph { return q.ix.g }

// NodesScanned returns the total number of nodes settled by this querier
// since construction.
func (q *Querier) NodesScanned() int64 { return q.nodesScanned }

// NewQuerier returns a querier with scratch sized to the index.
func (ix *Index) NewQuerier() *Querier {
	return &Querier{
		ix: ix,
		fh: pqueue.NewIndexedHeap(ix.n),
		bh: pqueue.NewIndexedHeap(ix.n),
		fd: make([]float64, ix.n),
		bd: make([]float64, ix.n),
		fs: make([]uint32, ix.n),
		bs: make([]uint32, ix.n),
	}
}

// Dist returns the exact shortest-path distance between u and v, or +Inf
// when disconnected.
func (q *Querier) Dist(u, v graph.NodeID) float64 {
	if u == v {
		return 0
	}
	q.epoch++
	if q.epoch == 0 {
		for i := range q.fs {
			q.fs[i] = 0
			q.bs[i] = 0
		}
		q.epoch = 1
	}
	q.fh.Reset()
	q.bh.Reset()
	q.fs[u] = q.epoch
	q.fd[u] = 0
	q.fh.Update(u, 0)
	q.bs[v] = q.epoch
	q.bd[v] = 0
	q.bh.Update(v, 0)

	best := math.Inf(1)
	ix := q.ix
	step := func(h *pqueue.IndexedHeap, dist []float64, stamp []uint32,
		odist []float64, ostamp []uint32) {
		x, dx := h.Pop()
		q.nodesScanned++
		if ostamp[x] == q.epoch {
			if cand := dx + odist[x]; cand < best {
				best = cand
			}
		}
		for e := ix.upStart[x]; e < ix.upStart[x+1]; e++ {
			y := ix.upNode[e]
			dy := dx + ix.upW[e]
			if stamp[y] != q.epoch || dy < dist[y] {
				stamp[y] = q.epoch
				dist[y] = dy
				h.Update(y, dy)
			}
		}
	}
	for q.fh.Len() > 0 || q.bh.Len() > 0 {
		fMin, bMin := math.Inf(1), math.Inf(1)
		if q.fh.Len() > 0 {
			_, fMin = q.fh.Min()
		}
		if q.bh.Len() > 0 {
			_, bMin = q.bh.Min()
		}
		if math.Min(fMin, bMin) >= best {
			break
		}
		if fMin <= bMin {
			step(q.fh, q.fd, q.fs, q.bd, q.bs)
		} else {
			step(q.bh, q.bd, q.bs, q.fd, q.fs)
		}
	}
	return best
}
