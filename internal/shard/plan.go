package shard

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"fannr/internal/core"
	"fannr/internal/graph"
	"fannr/internal/gtree"
	"fannr/internal/sp"
)

// PlanOptions configures partitioning.
type PlanOptions struct {
	// Shards is S, the number of partitions (required, ≥ 1).
	Shards int
}

// Plan is the immutable sharding contract the coordinator and the
// partitioner agree on: which shard owns which vertices (and therefore
// which P-objects), plus the landmark summaries that turn a query's Q
// into a per-shard lower bound on any g_φ achievable inside the shard.
//
// The graph itself is replicated on every shard host — exact network
// distances need the whole graph, and graphs are the small, static part
// of the state; it is the object workload and the engine compute that
// shard. Ownership follows gtree.PartitionK: each shard is a run of
// consecutive partition-tree leaves, so shards inherit the balanced
// small-cut geometry the G-tree's bisection already paid for.
type Plan struct {
	g *graph.Graph
	// Epoch fingerprints the topology (graph identity, S, group
	// boundaries). It is stamped into coordinator cache keys so a
	// resharded deployment can never serve results cached under the old
	// cut.
	Epoch uint64

	groups  [][]graph.NodeID
	shardOf []int32

	// Landmark summaries: land[l][v] = d(landmark_l, v); lmin/lmax[l][s]
	// envelope d(landmark_l, ·) over shard s's vertices.
	land       [][]float64
	lmin, lmax [][]float64

	// Per-shard coordinate bounding boxes (when the graph has
	// coordinates) add a geometric lower bound alongside the landmarks.
	bbox      []box
	hasCoords bool

	// sets is the registry every coordinator over this plan validates
	// its requests through (core/sets.go). It lives here because what a
	// coordinator keeps per P layer — the cut — is this plan's: SplitP is
	// a pure function of (plan, P), and sets is its memo.
	sets *core.SetRegistry
}

type box struct{ minX, minY, maxX, maxY float64 }

// NewPlan cuts g into opts.Shards groups along the partition tree and
// precomputes the landmark summaries.
func NewPlan(g *graph.Graph, tree *gtree.Tree, opts PlanOptions) (*Plan, error) {
	if opts.Shards < 1 {
		return nil, fmt.Errorf("shard: plan needs ≥ 1 shard, got %d", opts.Shards)
	}
	if tree.Graph() != g {
		return nil, fmt.Errorf("shard: partition tree was built over a different graph")
	}
	p := &Plan{
		g:         g,
		groups:    tree.PartitionK(opts.Shards),
		shardOf:   make([]int32, g.NumNodes()),
		hasCoords: g.HasCoords(),
		sets:      core.NewSetRegistry(),
	}
	for s, grp := range p.groups {
		for _, v := range grp {
			p.shardOf[v] = int32(s)
		}
	}
	p.Epoch = p.fingerprint()
	p.buildLandmarks()
	if p.hasCoords {
		p.buildBoxes()
	}
	return p, nil
}

// fingerprint hashes the topology: graph identity, S, and every group
// boundary. Deterministic across processes (FNV, no random seeds), so a
// coordinator restarted over the same cut keeps the same epoch and a
// different cut can never collide into serving stale cached results.
func (p *Plan) fingerprint() uint64 {
	h := fnv.New64a()
	var b [8]byte
	write := func(v uint64) {
		binary.BigEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	h.Write([]byte(p.g.Name()))
	write(uint64(p.g.NumNodes()))
	write(uint64(len(p.groups)))
	for _, grp := range p.groups {
		write(uint64(len(grp)))
		if len(grp) > 0 {
			write(uint64(grp[0]))
			write(uint64(grp[len(grp)-1]))
		}
	}
	return h.Sum64()
}

// buildLandmarks picks sp.DefaultLandmarks landmarks by farthest-point
// sampling (sp.Landmarks) and envelopes each distance vector per shard. More
// landmarks would tighten the bounds at |V|·L floats of memory.
func (p *Plan) buildLandmarks() {
	p.land = sp.Landmarks(p.g, sp.DefaultLandmarks)
	S := len(p.groups)
	p.lmin = make([][]float64, len(p.land))
	p.lmax = make([][]float64, len(p.land))
	for l, vec := range p.land {
		mins, maxs := make([]float64, S), make([]float64, S)
		for s := range p.groups {
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, v := range p.groups[s] {
				dv := vec[v]
				if dv < lo {
					lo = dv
				}
				if dv > hi {
					hi = dv
				}
			}
			mins[s], maxs[s] = lo, hi
		}
		p.lmin[l], p.lmax[l] = mins, maxs
	}
}

func (p *Plan) buildBoxes() {
	p.bbox = make([]box, len(p.groups))
	for s, grp := range p.groups {
		bb := box{math.Inf(1), math.Inf(1), math.Inf(-1), math.Inf(-1)}
		for _, v := range grp {
			x, y := p.g.Coord(v)
			bb.minX, bb.maxX = math.Min(bb.minX, x), math.Max(bb.maxX, x)
			bb.minY, bb.maxY = math.Min(bb.minY, y), math.Max(bb.maxY, y)
		}
		p.bbox[s] = bb
	}
}

// Shards returns S.
func (p *Plan) Shards() int { return len(p.groups) }

// Graph returns the partitioned graph.
func (p *Plan) Graph() *graph.Graph { return p.g }

// Group returns the vertices shard s owns (do not mutate).
func (p *Plan) Group(s int) []graph.NodeID { return p.groups[s] }

// ShardOf returns the shard owning vertex v.
func (p *Plan) ShardOf(v graph.NodeID) int { return int(p.shardOf[v]) }

// SplitP routes a P-object set to its owning shards: out[s] holds the
// members of P whose vertex shard s owns, in P's order (the
// occurrence-list routing of the coordinator's scatter phase). A list
// the plan's registry holds — one a coordinator over this plan has
// validated twice — is cut once and the parts, which callers must not
// write to, are shared by every later call; any other list (a
// first-seen one, or the duplicate-free form a coordinator scatters of
// a list sent with duplicates) is cut for this call.
func (p *Plan) SplitP(P []graph.NodeID) [][]graph.NodeID {
	if e := p.sets.Find(P, p.g.NumNodes()); e != nil {
		return e.Split(p, p.cut)
	}
	return p.cut(P)
}

func (p *Plan) cut(P []graph.NodeID) [][]graph.NodeID {
	out := make([][]graph.NodeID, len(p.groups))
	for _, v := range P {
		s := p.shardOf[v]
		out[s] = append(out[s], v)
	}
	return out
}

// LowerBound returns a lower bound on d(p, q) valid for every vertex p
// that shard s owns. Per landmark l the triangle inequality gives
// d(p,q) ≥ max(d(l,q) − maxᵥ d(l,v), minᵥ d(l,v) − d(l,q), 0) with the
// envelope taken over the shard's vertices; the bound is the max over
// landmarks, further maxed with the scaled Euclidean distance from q to
// the shard's bounding box when coordinates exist. Empty shards bound
// to +Inf (no candidate can live there).
func (p *Plan) LowerBound(s int, q graph.NodeID) float64 {
	if len(p.groups[s]) == 0 {
		return math.Inf(1)
	}
	best := 0.0
	for l, vec := range p.land {
		dq := vec[q]
		lo, hi := p.lmin[l][s], p.lmax[l][s]
		if math.IsInf(dq, 1) {
			if !math.IsInf(hi, 1) {
				// q unreachable from l while the whole shard is
				// reachable: in an undirected graph q is then
				// unreachable from every shard vertex.
				return math.Inf(1)
			}
			continue
		}
		if b := dq - hi; b > best {
			best = b
		}
		if b := lo - dq; b > best {
			best = b
		}
	}
	if p.hasCoords {
		bb := p.bbox[s]
		x, y := p.g.Coord(q)
		dx := math.Max(0, math.Max(bb.minX-x, x-bb.maxX))
		dy := math.Max(0, math.Max(bb.minY-y, y-bb.maxY))
		if dx > 0 || dy > 0 {
			if b := p.g.ScaleEuclid(math.Hypot(dx, dy)); b > best {
				best = b
			}
		}
	}
	return best
}

// Bound returns a lower bound on g_φ(p, Q) over every p in shard s,
// where k = ⌈φ|Q|⌉ is the aggregate's subset size. For any p the k
// distances entering g_φ are the k smallest of {d(p,q) : q ∈ Q}, and
// d(p,qᵢ) ≥ lbᵢ pointwise, so the aggregate over the k smallest true
// distances is at least the aggregate over the k smallest lower bounds
// (order statistics are monotone under pointwise domination). Pruning a
// shard whose Bound ≥ the current k-th best g_φ therefore never
// discards an improving candidate — the exactness argument in DESIGN.md
// §17.
func (p *Plan) Bound(s int, Q []graph.NodeID, k int, agg core.Aggregate) float64 {
	if len(p.groups[s]) == 0 {
		return math.Inf(1)
	}
	if k > len(Q) {
		k = len(Q)
	}
	if k < 1 {
		k = 1
	}
	lbs := make([]float64, len(Q))
	for i, q := range Q {
		lbs[i] = p.LowerBound(s, q)
	}
	sort.Float64s(lbs)
	if agg == core.Max {
		return lbs[k-1]
	}
	sum := 0.0
	for _, b := range lbs[:k] {
		sum += b
	}
	return sum
}
