package core

import (
	"fmt"
	"slices"
	"strings"

	"fannr/internal/graph"
	"fannr/internal/gtree"
	"fannr/internal/sp"
)

// Index names the one index a g_φ engine searches.
type Index uint8

const (
	// NoIndex: the graph alone (INE, A*, IER-A*).
	NoIndex Index = iota
	PHLIndex
	GTreeIndex
)

// String is the index's name in error messages.
func (x Index) String() string {
	return [...]string{"no", "PHL", "G-tree"}[x]
}

// ParseIndexes reads the comma-separated list the serving binaries'
// -engines flag takes: PHL and GTree name an index to build; INE and A*
// name engines that need none and are accepted as no-ops. Each index is
// listed once, in the order first named.
func ParseIndexes(list string) ([]Index, error) {
	var out []Index
	for _, name := range strings.Split(list, ",") {
		var x Index
		switch strings.TrimSpace(name) {
		case "", "INE", "A*":
			continue
		case "PHL":
			x = PHLIndex
		case "GTree":
			x = GTreeIndex
		default:
			return nil, fmt.Errorf("unknown index %q (want PHL or GTree)", name)
		}
		if !slices.Contains(out, x) {
			out = append(out, x)
		}
	}
	return out, nil
}

// Indexes is what the catalogue builds engines over: the indexes one tier
// built or loaded, nil where it has none.
type Indexes struct {
	// PHL is a hub-label index (phl.Index), one instance safe for
	// concurrent readers: the per-query scratch lives in the engines.
	PHL Oracle
	// GTree is a G-tree; every engine takes a querier of its own.
	GTree *gtree.Tree
}

func (ix Indexes) has(x Index) bool {
	switch x {
	case PHLIndex:
		return ix.PHL != nil
	case GTreeIndex:
		return ix.GTree != nil
	}
	return true
}

// oracle returns a distance oracle over index x for one engine; over no
// index it is A*.
func (ix Indexes) oracle(g *graph.Graph, x Index) Oracle {
	switch x {
	case PHLIndex:
		return ix.PHL
	case GTreeIndex:
		return ix.GTree.NewQuerier()
	}
	return sp.NewAStar(g)
}

// engineSpec is one row of the catalogue.
type engineSpec struct {
	name  string
	index Index
	// ier: an R-tree over Q and incremental Euclidean restriction around
	// the index's oracle (NewIERGPhi), which needs coordinates.
	ier bool
	// search builds an engine with a search of its own (INE, GTree); nil
	// means one oracle distance per member of Q (NewOracleGPhi).
	search func(g *graph.Graph, ix Indexes) GPhi
}

// catalogue is the paper's Table I plus the G-tree point-to-point
// extension: every engine name a tier can serve, the index it searches
// and how it is built. It is the only place that maps an engine name to
// a constructor; its order is the order tiers register engines in, so
// INE, which needs nothing, comes first.
var catalogue = []engineSpec{
	{name: "INE", search: func(g *graph.Graph, _ Indexes) GPhi { return NewINE(g) }},
	{name: "A*"},
	{name: "PHL", index: PHLIndex},
	// GTree-SPSP resolves all of Q, which beats GTree's stream where all
	// of Q is wanted: GD on NW 1/64 at φ = 1, max, in 0.82–0.92 of its
	// time at every d ∈ {0.001, 0.01}, M ∈ {8, 64, 256}, and at M = 8,
	// d = 0.001 at every φ (0.46–0.86). Everywhere else GTree leads, by
	// up to 1.33× at φ = 0.1.
	{name: "GTree-SPSP", index: GTreeIndex},
	{name: "GTree", index: GTreeIndex, search: func(_ *graph.Graph, ix Indexes) GPhi { return NewGTreeGPhi(ix.GTree) }},
	{name: "IER-A*", ier: true},
	{name: "IER-PHL", index: PHLIndex, ier: true},
	{name: "IER-GTree", index: GTreeIndex, ier: true},
}

func specOf(name string) (*engineSpec, error) {
	for i := range catalogue {
		if catalogue[i].name == name {
			return &catalogue[i], nil
		}
	}
	return nil, fmt.Errorf("unknown engine %q", name)
}

// factory checks that ix on g can serve s and returns its constructor.
func (s *engineSpec) factory(g *graph.Graph, ix Indexes) (EngineFactory, error) {
	if s.ier && !g.HasCoords() {
		return nil, fmt.Errorf("engine %s needs coordinates for Euclidean restriction", s.name)
	}
	if !ix.has(s.index) {
		return nil, fmt.Errorf("engine %s needs the %s index", s.name, s.index)
	}
	return func() GPhi {
		switch {
		case s.search != nil:
			return s.search(g, ix)
		case s.ier:
			gp, err := NewIERGPhi(s.name, g, ix.oracle(g, s.index))
			if err != nil {
				panic(err) // the coordinates were checked above
			}
			return gp
		}
		return NewOracleGPhi(s.name, ix.oracle(g, s.index))
	}, nil
}

// Engine returns the constructor of the named engine over ix on g, or
// says why ix cannot serve it: an unknown name, a graph without the
// coordinates an IER-* engine needs, or an index ix does not hold.
func Engine(name string, g *graph.Graph, ix Indexes) (EngineFactory, error) {
	s, err := specOf(name)
	if err != nil {
		return nil, err
	}
	return s.factory(g, ix)
}

// EngineIndex is the index the named engine searches.
func EngineIndex(name string) (Index, error) {
	s, err := specOf(name)
	if err != nil {
		return NoIndex, err
	}
	return s.index, nil
}

// EngineNames lists every catalogue name, in the catalogue's order.
func EngineNames() []string {
	names := make([]string, len(catalogue))
	for i, s := range catalogue {
		names[i] = s.name
	}
	return names
}

// ServedEngine is one engine a tier serves.
type ServedEngine struct {
	Name  string
	Index Index
	New   EngineFactory
}

// Catalogue lists, in the catalogue's order, every engine ix serves on g.
func Catalogue(g *graph.Graph, ix Indexes) []ServedEngine {
	var out []ServedEngine
	for i := range catalogue {
		s := &catalogue[i]
		if f, err := s.factory(g, ix); err == nil {
			out = append(out, ServedEngine{Name: s.name, Index: s.index, New: f})
		}
	}
	return out
}
