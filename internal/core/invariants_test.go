package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"fannr/internal/graph"
	"fannr/internal/rtree"
	"fannr/internal/sp"
)

// Property tests for the structural invariants of FANN_R, run over random
// road networks and query sets via testing/quick.

// quickEnv builds a small environment per property-check invocation.
func quickEnv(t *testing.T, seed int64) (*graph.Graph, GPhi, *rand.Rand) {
	t.Helper()
	g, err := graph.Generate(graph.GenConfig{Nodes: 220, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return g, NewINE(g), rand.New(rand.NewSource(seed ^ 0x1ee7))
}

func pick(rng *rand.Rand, n, count int) []graph.NodeID {
	seen := map[int32]bool{}
	out := make([]graph.NodeID, 0, count)
	for len(out) < count {
		v := int32(rng.Intn(n))
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// d* is nondecreasing in φ: serving more query points can only cost more.
func TestMonotoneInPhi(t *testing.T) {
	f := func(seed int64) bool {
		g, gp, rng := quickEnv(t, seed)
		q := Query{P: pick(rng, g.NumNodes(), 12), Q: pick(rng, g.NumNodes(), 8)}
		for _, agg := range []Aggregate{Max, Sum} {
			prev := -1.0
			for _, phi := range []float64{0.125, 0.25, 0.5, 0.75, 1.0} {
				q.Phi = phi
				q.Agg = agg
				ans, err := GD(g, gp, q)
				if err != nil {
					return false
				}
				if ans.Dist < prev-1e-9 {
					return false
				}
				prev = ans.Dist
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// Adding data points can only improve (or preserve) the optimum; adding
// query points can never improve the optimal max.
func TestMonotoneInP(t *testing.T) {
	f := func(seed int64) bool {
		g, gp, rng := quickEnv(t, seed)
		P := pick(rng, g.NumNodes(), 16)
		Q := pick(rng, g.NumNodes(), 8)
		q := Query{P: P[:8], Q: Q, Phi: 0.5, Agg: Max}
		small, err := GD(g, gp, q)
		if err != nil {
			return false
		}
		q.P = P
		large, err := GD(g, gp, q)
		if err != nil {
			return false
		}
		return large.Dist <= small.Dist+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// The k-FANN_R rank-1 answer matches the FANN_R answer, and the distance
// profile is nondecreasing (prefix property).
func TestKFANNPrefixProperty(t *testing.T) {
	f := func(seed int64) bool {
		g, gp, rng := quickEnv(t, seed)
		q := Query{P: pick(rng, g.NumNodes(), 14), Q: pick(rng, g.NumNodes(), 7), Phi: 0.5, Agg: Max}
		one, err := GD(g, gp, q)
		if err != nil {
			return false
		}
		many, err := KGD(g, gp, q, 5)
		if err != nil {
			return false
		}
		if math.Abs(many[0].Dist-one.Dist) > 1e-9 {
			return false
		}
		for i := 1; i < len(many); i++ {
			if many[i].Dist < many[i-1].Dist-1e-12 {
				return false
			}
		}
		// Each larger k extends the same distance profile.
		fewer, err := KGD(g, gp, q, 3)
		if err != nil {
			return false
		}
		for i := range fewer {
			if math.Abs(fewer[i].Dist-many[i].Dist) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// The flexible Euclidean aggregate used by IER-kNN is admissible: it never
// exceeds the network flexible aggregate (Lemma 1).
func TestLemma1Admissibility(t *testing.T) {
	f := func(seed int64) bool {
		g, gp, rng := quickEnv(t, seed)
		Q := pick(rng, g.NumNodes(), 10)
		q := Query{P: pick(rng, g.NumNodes(), 10), Q: Q, Phi: 0.5, Agg: Max}
		gp.Reset(Q)
		k := q.K()
		s := newIERSearch(g, BuildPTree(g, q.P), q)
		for _, p := range q.P {
			x, y := g.Coord(p)
			lb := s.boundPoint(x, y)
			d, ok := gp.Dist(p, k, q.Agg)
			if ok && lb > d+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// The reported subset is exactly the k network-nearest query points.
func TestSubsetIsKNearest(t *testing.T) {
	f := func(seed int64) bool {
		g, gp, rng := quickEnv(t, seed)
		q := Query{P: pick(rng, g.NumNodes(), 10), Q: pick(rng, g.NumNodes(), 9), Phi: 0.4, Agg: Sum}
		ans, err := GD(g, gp, q)
		if err != nil {
			return false
		}
		// Recompute distances from ans.P to all of Q; the subset's worst
		// member must be no farther than any excluded member.
		gp.Reset(q.Q)
		worstIn := 0.0
		inSubset := map[graph.NodeID]bool{}
		for _, v := range ans.Subset {
			inSubset[v] = true
		}
		dists := map[graph.NodeID]float64{}
		for _, v := range q.Q {
			d, _ := distTo(g, ans.P, v)
			dists[v] = d
			if inSubset[v] && d > worstIn {
				worstIn = d
			}
		}
		for _, v := range q.Q {
			if !inSubset[v] && dists[v] < worstIn-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// propDijkstra caches one Dijkstra engine per graph across property
// iterations.
var propDijkstra = map[*graph.Graph]*sp.Dijkstra{}

func distTo(g *graph.Graph, u, v graph.NodeID) (float64, bool) {
	d, ok := propDijkstra[g]
	if !ok {
		d = sp.NewDijkstra(g)
		propDijkstra[g] = d
	}
	return d.Dist(u, v), true
}

// FuzzIERBoundAdmissible is Lemma 1 over the whole packed P-tree, the
// inequality IER-kNN's early stop rests on: for any road-like graph or
// the unit grid (distances tie, the chain is out of reach), any P and Q,
// any φ and either aggregate, boundPoint of a data point is at most
// Brute's g_φ of it, and boundNode of every R-tree node at most the
// smallest g_φ among the data points beneath it.
func FuzzIERBoundAdmissible(f *testing.F) {
	f.Add(int64(1), uint8(40), false, []byte{0, 1, 2, 3, 90, 91, 200}, []byte{5, 6, 77}, uint8(49), false)
	f.Add(int64(2), uint8(7), true, []byte{0, 11, 22, 33, 44, 55, 66, 77, 88, 99, 101, 120}, []byte{3, 50, 52, 102}, uint8(99), true)
	f.Add(int64(3), uint8(200), false, []byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 100, 150, 250}, []byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(0), true)
	f.Add(int64(4), uint8(3), true, []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20}, []byte{20, 40}, uint8(50), false)
	f.Fuzz(func(t *testing.T, seed int64, size uint8, grid bool, rawP, rawQ []byte, phiRaw uint8, sum bool) {
		var g *graph.Graph
		if grid {
			g = unitGrid(t, 3+int(size)%10)
		} else {
			var err error
			if g, err = graph.Generate(graph.GenConfig{Nodes: 64 + int(size), Seed: seed}); err != nil {
				t.Fatal(err)
			}
		}
		nodes := func(raw []byte, limit int) []graph.NodeID {
			if len(raw) > limit {
				raw = raw[:limit]
			}
			out := make([]graph.NodeID, len(raw))
			for i, c := range raw {
				out[i] = graph.NodeID((int(c) + i*int(size)) % g.NumNodes())
			}
			return out
		}
		q := Query{P: nodes(rawP, 48), Q: nodes(rawQ, 16), Phi: float64(1+int(phiRaw)%100) / 100, Agg: Max}
		if sum {
			q.Agg = Sum
		}
		if q.Validate(g) != nil {
			return // an empty set
		}
		gphi := make(map[graph.NodeID]float64, len(q.P))
		for _, p := range q.P {
			one, err := Brute(g, Query{P: []graph.NodeID{p}, Q: q.Q, Phi: q.Phi, Agg: q.Agg})
			switch {
			case errors.Is(err, ErrNoResult):
				gphi[p] = math.Inf(1) // fewer than k of Q can be reached
			case err != nil:
				t.Fatal(err)
			default:
				gphi[p] = one.Dist
			}
		}
		rtP := buildPTree(g, q.P)
		s := newIERSearch(g, rtP, q)
		admissible := func(what string, lb, d float64) {
			t.Helper()
			if !(lb >= 0) || lb > d+1e-9*(1+d) {
				t.Fatalf("%s: bound %v over g_φ %v (k = %d of %d, %v)", what, lb, d, q.K(), len(q.Q), q.Agg)
			}
		}
		var walk func(n *rtree.Node) float64
		walk = func(n *rtree.Node) float64 {
			least := math.Inf(1)
			for _, c := range n.Children() {
				least = math.Min(least, walk(c))
			}
			if n.IsLeaf() {
				for _, p := range n.Points() {
					admissible(fmt.Sprintf("point %d", p.ID), s.boundPoint(p.X, p.Y), gphi[p.ID])
					least = math.Min(least, gphi[p.ID])
				}
			}
			admissible(fmt.Sprintf("node over %v", n.Rect()), s.boundNode(n), least)
			return least
		}
		walk(rtP.Root())
	})
}
