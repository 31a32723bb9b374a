// Package workload generates the experimental inputs of the paper's
// evaluation (§VI-A): the road-network datasets of Table III (as scaled
// synthetic stand-ins with a DIMACS escape hatch), uniform data points
// controlled by density d, uniform query points controlled by coverage
// ratio A and size M, clustered query points controlled by C, and the
// real-world POI layers of Table IV (as synthetic layers with matched
// cardinalities and clustering character).
package workload

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"sort"
	"sync"

	"fannr/internal/graph"
	"fannr/internal/sp"
)

// DatasetSpec names a road network of the paper's Table III with its
// original node count.
type DatasetSpec struct {
	Name       string
	Desc       string
	PaperNodes int
	PaperEdges int
	Seed       int64
}

// TableIII lists the paper's datasets in size order.
var TableIII = []DatasetSpec{
	{Name: "DE", Desc: "Delaware", PaperNodes: 48_812, PaperEdges: 119_004, Seed: 101},
	{Name: "ME", Desc: "Maine", PaperNodes: 187_315, PaperEdges: 412_352, Seed: 102},
	{Name: "COL", Desc: "Colorado", PaperNodes: 435_666, PaperEdges: 1_042_400, Seed: 103},
	{Name: "NW", Desc: "Northwest USA", PaperNodes: 1_089_933, PaperEdges: 2_545_844, Seed: 104},
	{Name: "E", Desc: "Eastern USA", PaperNodes: 3_598_623, PaperEdges: 8_708_058, Seed: 105},
	{Name: "CTR", Desc: "Central USA", PaperNodes: 14_081_816, PaperEdges: 33_866_826, Seed: 106},
	{Name: "USA", Desc: "Full USA", PaperNodes: 23_947_347, PaperEdges: 57_708_624, Seed: 107},
}

// DefaultScale shrinks the paper's datasets to laptop size (1/16 of the
// original node counts) while preserving their relative ordering; see the
// substitution table in DESIGN.md.
const DefaultScale = 1.0 / 16

// FindDataset returns the spec for a Table III name.
func FindDataset(name string) (DatasetSpec, error) {
	for _, d := range TableIII {
		if d.Name == name {
			return d, nil
		}
	}
	return DatasetSpec{}, fmt.Errorf("workload: unknown dataset %q", name)
}

// LoadDataset materializes a dataset at the given scale. If the
// environment variable FANNR_DATA_DIR is set and contains <name>.gr (and
// optionally <name>.co), the real DIMACS files are loaded instead of
// generating a synthetic network.
func LoadDataset(name string, scale float64) (*graph.Graph, error) {
	spec, err := FindDataset(name)
	if err != nil {
		return nil, err
	}
	if dir := os.Getenv("FANNR_DATA_DIR"); dir != "" {
		if g, err := loadDIMACSDir(dir, name); err == nil {
			return g, nil
		}
	}
	if scale <= 0 {
		scale = DefaultScale
	}
	nodes := int(float64(spec.PaperNodes) * scale)
	if nodes < 64 {
		nodes = 64
	}
	return graph.Generate(graph.GenConfig{Nodes: nodes, Seed: spec.Seed, Name: name})
}

func loadDIMACSDir(dir, name string) (*graph.Graph, error) {
	co := dir + "/" + name + ".co"
	if _, err := os.Stat(co); err != nil {
		co = ""
	}
	return readDIMACS(dir+"/"+name+".gr", co)
}

// LoadNetwork is the road network the command-line tools run on: the
// DIMACS files grFile and coFile (coordinates optional), or without
// grFile the Table III dataset at the given scale.
func LoadNetwork(dataset string, scale float64, grFile, coFile string) (*graph.Graph, error) {
	if grFile == "" {
		return LoadDataset(dataset, scale)
	}
	return readDIMACS(grFile, coFile)
}

// readDIMACS reads a .gr file and, when coFile names one, its .co file,
// and keeps the largest connected component.
func readDIMACS(grFile, coFile string) (*graph.Graph, error) {
	gr, err := os.Open(grFile)
	if err != nil {
		return nil, err
	}
	defer gr.Close()
	var co io.Reader
	if coFile != "" {
		f, err := os.Open(coFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		co = f
	}
	g, err := graph.ReadDIMACS(gr, co)
	if err != nil {
		return nil, err
	}
	lcc, _, err := graph.LargestComponent(g)
	return lcc, err
}

// Params are the paper's experimental factors with their §VI-A defaults.
type Params struct {
	D   float64 // density of P: |P| = d·|V|
	A   float64 // coverage ratio of Q (fraction of the network radius)
	M   int     // |Q|
	C   int     // number of query clusters (1 = uniform)
	Phi float64 // flexibility
}

// DefaultParams returns d=0.001, A=10%, M=128, C=1, φ=0.5.
func DefaultParams() Params {
	return Params{D: 0.001, A: 0.10, M: 128, C: 1, Phi: 0.5}
}

// Generator draws P and Q sets over one road network. It caches the
// network radius computation. Safe for concurrent use: mu serializes the
// shared rand.Rand and Dijkstra scratch, so concurrent draws are each
// well-formed (though their interleaving — and therefore which draw gets
// which sample — is scheduling-dependent; use one Generator per goroutine
// when per-draw determinism matters).
type Generator struct {
	g      *graph.Graph
	mu     sync.Mutex
	rng    *rand.Rand
	d      *sp.Dijkstra
	radius float64
	seed   graph.NodeID
	// distFromSeed caches the SSSP from the radius seed for region
	// selection.
	distFromSeed []float64
}

// NewGenerator seeds a generator on g. The paper's "radius" (maximum
// shortest-path distance from a random seed node) is computed once.
func NewGenerator(g *graph.Graph, seed int64) *Generator {
	gen := &Generator{
		g:   g,
		rng: rand.New(rand.NewSource(seed)),
		d:   sp.NewDijkstra(g),
	}
	gen.seed = graph.NodeID(gen.rng.Intn(g.NumNodes()))
	gen.distFromSeed = gen.d.All(gen.seed)
	for _, dist := range gen.distFromSeed {
		if !math.IsInf(dist, 1) && dist > gen.radius {
			gen.radius = dist
		}
	}
	return gen
}

// Radius returns the network radius used for coverage regions.
func (gen *Generator) Radius() float64 { return gen.radius }

// UniformP samples ⌈d·|V|⌉ distinct nodes uniformly (the paper's uniform
// data points).
func (gen *Generator) UniformP(d float64) []graph.NodeID {
	gen.mu.Lock()
	defer gen.mu.Unlock()
	count := int(math.Ceil(d * float64(gen.g.NumNodes())))
	if count < 1 {
		count = 1
	}
	if count > gen.g.NumNodes() {
		count = gen.g.NumNodes()
	}
	return gen.sampleDistinct(count, nil)
}

// UniformQ samples M nodes whose distance from a random seed node is at
// most A·radius, expanding outward when the region is too small (the
// paper's uniform query points).
func (gen *Generator) UniformQ(a float64, m int) []graph.NodeID {
	gen.mu.Lock()
	defer gen.mu.Unlock()
	region := gen.region(a, m)
	return gen.sampleFrom(region, m)
}

// ClusteredQ picks C central nodes inside the A-region and grows M/C
// query points around each by network expansion (the paper's clustered
// query points).
func (gen *Generator) ClusteredQ(a float64, m, c int) []graph.NodeID {
	gen.mu.Lock()
	defer gen.mu.Unlock()
	return gen.clusteredQ(a, m, c)
}

// clusteredQ is ClusteredQ with gen.mu held (POI reuses it under its own
// lock).
func (gen *Generator) clusteredQ(a float64, m, c int) []graph.NodeID {
	if c < 1 {
		c = 1
	}
	if c > m {
		c = m
	}
	region := gen.region(a, m)
	out := make([]graph.NodeID, 0, m)
	seen := graph.NewNodeSet(gen.g.NumNodes())
	for ci := 0; ci < c; ci++ {
		center := region[gen.rng.Intn(len(region))]
		want := m / c
		if ci < m%c {
			want++
		}
		got := 0
		gen.d.Run(center, func(v graph.NodeID, _ float64) bool {
			if !seen.Contains(v) {
				seen.Add(v, 0)
				out = append(out, v)
				got++
			}
			return got < want
		})
	}
	return out
}

// region returns the nodes within a·radius of the seed, expanded outward
// to at least m nodes ("we simply expand outward until the size reaches
// M").
func (gen *Generator) region(a float64, m int) []graph.NodeID {
	limit := a * gen.radius
	var in []graph.NodeID
	for v, dist := range gen.distFromSeed {
		if dist <= limit {
			in = append(in, graph.NodeID(v))
		}
	}
	if len(in) >= m {
		return in
	}
	// Expand outward in distance order.
	type nd struct {
		v    graph.NodeID
		dist float64
	}
	var all []nd
	for v, dist := range gen.distFromSeed {
		if !math.IsInf(dist, 1) {
			all = append(all, nd{graph.NodeID(v), dist})
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].dist < all[j].dist })
	in = in[:0]
	for i := 0; i < len(all) && i < m; i++ {
		in = append(in, all[i].v)
	}
	return in
}

func (gen *Generator) sampleDistinct(count int, from []graph.NodeID) []graph.NodeID {
	n := gen.g.NumNodes()
	if from != nil {
		n = len(from)
	}
	if count >= n {
		if from != nil {
			return append([]graph.NodeID(nil), from...)
		}
		out := make([]graph.NodeID, n)
		for i := range out {
			out[i] = graph.NodeID(i)
		}
		return out
	}
	seen := make(map[int]bool, count)
	out := make([]graph.NodeID, 0, count)
	for len(out) < count {
		i := gen.rng.Intn(n)
		if seen[i] {
			continue
		}
		seen[i] = true
		if from != nil {
			out = append(out, from[i])
		} else {
			out = append(out, graph.NodeID(i))
		}
	}
	return out
}

func (gen *Generator) sampleFrom(from []graph.NodeID, count int) []graph.NodeID {
	return gen.sampleDistinct(count, from)
}
