package difftest

import (
	"math"
	"math/rand"
	"testing"

	"fannr/internal/core"
	"fannr/internal/graph"
	"fannr/internal/gtree"
	"fannr/internal/phl"
	"fannr/internal/qcache"
)

// islandEnv is NewEnv over an 800-node road network plus a 6-node chain
// no road connects to it, so a point on one side reaches fewer than k
// members of a Q that straddles both. It returns the island's node ids.
func islandEnv(t *testing.T) (*Env, []graph.NodeID) {
	t.Helper()
	g0, err := graph.Generate(graph.GenConfig{Nodes: 800, Seed: 12, Name: "contract"})
	if err != nil {
		t.Fatal(err)
	}
	const islandSize = 6
	n := g0.NumNodes()
	b := graph.NewBuilder(n + islandSize)
	x, y := make([]float64, n+islandSize), make([]float64, n+islandSize)
	for v := 0; v < n; v++ {
		x[v], y[v] = g0.Coord(graph.NodeID(v))
	}
	_, _, maxX, maxY := g0.BoundingBox()
	var island []graph.NodeID
	for i := 0; i < islandSize; i++ {
		v := graph.NodeID(n + i)
		x[v], y[v] = maxX+1+float64(i)*1e-3, maxY+1
		island = append(island, v)
	}
	if err := b.SetCoords(x, y); err != nil {
		t.Fatal(err)
	}
	for _, e := range g0.Edges(nil) {
		if err := b.AddEdge(e.U, e.V, e.W); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < islandSize; i++ {
		if err := b.AddEdge(island[i-1], island[i], 1); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	labels, err := phl.Build(g, phl.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := gtree.Build(g, gtree.Options{MaxLeafSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	env, err := assembleEnv(g, labels, tr)
	if err != nil {
		t.Fatal(err)
	}
	return env, island
}

// TestNeighborSearcherContract pins what the query cache, the shard hosts
// and the breaker probe all rely on: for every engine, bare and wrapped
// by the cache, Dist(p,k,agg) is bit-identical to
// AggSorted(KNearest(p,k,nil),k,agg) and Subset lists KNearest's nodes in
// KNearest's order — so one query answered cold and warm returns the same
// bits and breaks ties the same way. The seeded (p, k) include points
// that reach fewer than k members of Q.
func TestNeighborSearcherContract(t *testing.T) {
	env, island := islandEnv(t)
	mainland := env.G.NumNodes() - len(island)
	cache := qcache.New(qcache.Config{MaxEntries: 1 << 14})
	rng := rand.New(rand.NewSource(12))
	belowSeen := false
	for _, bare := range env.Engines {
		for _, gp := range []core.GPhi{bare, cache.Wrap(bare)} {
			label := gp.Name() + "/bare"
			if gp != bare {
				label = gp.Name() + "/cached"
			}
			ns, ok := gp.(core.NeighborSearcher)
			if !ok {
				t.Fatalf("%s is not a NeighborSearcher", label)
			}
			for trial := 0; trial < 25; trial++ {
				// 20 mainland and 4 island query points; two data points
				// on each side.
				Q := append([]graph.NodeID{}, island[:4]...)
				for _, v := range rng.Perm(mainland)[:20] {
					Q = append(Q, graph.NodeID(v))
				}
				gp.Reset(Q)
				if trial%2 == 1 {
					// The cache stores a Q's lists from its second binding
					// on: odd trials bind twice, so the cached arm holds
					// the contract both ways — evaluated through at first
					// sight, and filled then served as prefixes.
					gp.Reset(Q)
				}
				ps := []graph.NodeID{graph.NodeID(rng.Intn(mainland)), graph.NodeID(rng.Intn(mainland)), island[4], island[5]}
				// Descending k: a filling cached engine serves the smaller
				// ones as prefixes of the first list.
				for _, k := range []int{len(Q), 21, 12, 1 + rng.Intn(11), 1} {
					for _, p := range ps {
						nbrs := ns.KNearest(p, k, nil)
						if len(nbrs) > k {
							t.Fatalf("%s: KNearest(%d, k=%d) returned %d neighbors", label, p, k, len(nbrs))
						}
						for _, agg := range []core.Aggregate{core.Max, core.Sum} {
							got, gotOK := gp.Dist(p, k, agg)
							want, wantOK := core.AggSorted(nbrs, k, agg)
							if gotOK != wantOK || math.Float64bits(got) != math.Float64bits(want) {
								t.Fatalf("%s: Dist(%d, k=%d, %v) = (%v, %v), AggSorted(KNearest) = (%v, %v), diff %g",
									label, p, k, agg, got, gotOK, want, wantOK, got-want)
							}
							// An engine that takes a threshold answers with
							// the same bits whenever it answers, and must
							// answer when the value is under the threshold:
							// just above it, at it, well under it.
							below, ok := gp.(core.DistBelower)
							if !ok {
								continue
							}
							belowSeen = true
							for _, tau := range []float64{math.Nextafter(want, math.Inf(1)), want, want / 2} {
								got, gotOK := below.DistBelow(p, k, agg, tau)
								if gotOK && (!wantOK || math.Float64bits(got) != math.Float64bits(want)) {
									t.Fatalf("%s: DistBelow(%d, k=%d, %v, τ=%v) = %v, AggSorted(KNearest) = (%v, %v)", label, p, k, agg, tau, got, want, wantOK)
								}
								if !gotOK && wantOK && want < tau {
									t.Fatalf("%s: DistBelow(%d, k=%d, %v, τ=%v) gave up on %v", label, p, k, agg, tau, want)
								}
							}
						}
						sub := gp.Subset(p, k, nil)
						if len(sub) != len(nbrs) {
							t.Fatalf("%s: Subset(%d, k=%d) has %d nodes, KNearest %d", label, p, k, len(sub), len(nbrs))
						}
						for i, nb := range nbrs {
							if sub[i] != nb.Node {
								t.Fatalf("%s: Subset(%d, k=%d)[%d] = %d, KNearest has %d", label, p, k, i, sub[i], nb.Node)
							}
						}
					}
				}
			}
		}
	}
	if m := cache.Metrics(); m.HitsSubsume == 0 || m.ListSkips == 0 {
		t.Fatalf("cached arm did not run both ways: %+v", m)
	}
	if !belowSeen {
		t.Fatal("no engine, bare or cached, took a threshold")
	}
}
