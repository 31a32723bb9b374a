package graph

import (
	"fmt"
	"math"
	"math/rand"
)

// GenConfig controls the synthetic road-network generator.
//
// The generator stands in for the DIMACS USA datasets of the paper's
// Table III (the module is offline): it produces connected, sparse,
// near-planar networks whose edge weights dominate the Euclidean distance
// between their endpoints, which is exactly the structure the paper's
// pruning bounds (Lemma 1) and the A*/IER heuristics rely on.
type GenConfig struct {
	Nodes int    // target node count before cleanup (result is slightly smaller)
	Seed  int64  // deterministic generation seed
	Name  string // dataset name recorded on the graph
}

// The shape of every generated network.
const (
	// genDrop is the fraction of grid edges removed.
	genDrop = 0.30
	// genDiag is the number of diagonal shortcut edges per node.
	genDiag = 0.10
	// genJitter is the relative weight inflation over Euclidean length:
	// w = euclid * (1 + U[0, genJitter]). Keeping weights at least the
	// Euclidean length makes Euclidean bounds admissible.
	genJitter = 0.30
	// genSpacing is the grid cell size in weight units.
	genSpacing = 100
)

// Generate builds a synthetic road network: a jittered grid with random
// edge failures and diagonal shortcuts, reduced to its largest connected
// component. Generation is deterministic for a given config.
func Generate(cfg GenConfig) (*Graph, error) {
	if cfg.Nodes < 2 {
		return nil, fmt.Errorf("graph: Generate needs at least 2 nodes, got %d", cfg.Nodes)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	cols := int(math.Ceil(math.Sqrt(float64(cfg.Nodes))))
	rows := (cfg.Nodes + cols - 1) / cols
	n := rows * cols

	x := make([]float64, n)
	y := make([]float64, n)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			id := r*cols + c
			// Jitter keeps nodes within their cell so the grid stays planar.
			x[id] = (float64(c) + 0.35*(rng.Float64()-0.5)) * genSpacing
			y[id] = (float64(r) + 0.35*(rng.Float64()-0.5)) * genSpacing
		}
	}

	b := NewBuilder(n)
	b.SetName(cfg.Name)
	if err := b.SetCoords(x, y); err != nil {
		return nil, err
	}
	euclid := func(u, v int) float64 {
		return math.Hypot(x[u]-x[v], y[u]-y[v])
	}
	addEdge := func(u, v int) error {
		w := euclid(u, v) * (1 + genJitter*rng.Float64())
		return b.AddEdge(NodeID(u), NodeID(v), w)
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			id := r*cols + c
			if c+1 < cols && rng.Float64() >= genDrop {
				if err := addEdge(id, id+1); err != nil {
					return nil, err
				}
			}
			if r+1 < rows && rng.Float64() >= genDrop {
				if err := addEdge(id, id+cols); err != nil {
					return nil, err
				}
			}
		}
	}
	// Diagonal shortcuts emulate highways and non-grid street patterns.
	for i := 0; i < int(genDiag*float64(n)); i++ {
		r := rng.Intn(rows - 1)
		c := rng.Intn(cols - 1)
		id := r*cols + c
		other := id + cols + 1
		if rng.Intn(2) == 0 && c > 0 {
			id = r*cols + c
			other = id + cols - 1
		}
		if err := addEdge(id, other); err != nil {
			return nil, err
		}
	}
	// Two highway tiers: minor highways every 8 cells, major every 64, at
	// near-Euclidean weight. They emulate the freeway hierarchy of real
	// road networks, which both A*-style heuristics and hub labelings
	// exploit (without them, hub label sizes degrade from the road-network
	// regime to the Θ(√n) planar-grid worst case): a long edge genuinely
	// short-cuts the jittered local grid.
	for _, tier := range []struct {
		stride int
		factor float64
	}{{8, 1.02}, {64, 1.01}} {
		if rows <= tier.stride && cols <= tier.stride {
			continue
		}
		for r := 0; r < rows; r += tier.stride {
			for c := 0; c < cols; c += tier.stride {
				id := r*cols + c
				if c+tier.stride < cols {
					other := r*cols + c + tier.stride
					w := euclid(id, other) * tier.factor
					if err := b.AddEdge(NodeID(id), NodeID(other), w); err != nil {
						return nil, err
					}
				}
				if r+tier.stride < rows {
					other := (r+tier.stride)*cols + c
					w := euclid(id, other) * tier.factor
					if err := b.AddEdge(NodeID(id), NodeID(other), w); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		return nil, err
	}
	lcc, _, err := LargestComponent(g)
	if err != nil {
		return nil, err
	}
	return lcc, nil
}
