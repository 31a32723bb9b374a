package server

import (
	"fmt"

	"fannr/internal/core"
	"fannr/internal/graph"
	"fannr/internal/gtree"
	"fannr/internal/phl"
)

// BuildIndexes builds each listed index over g in memory, as the
// binaries do at start-up for every index they are asked for and no file
// supplies. Construction uses every CPU; the result does not depend on
// how many.
func BuildIndexes(g *graph.Graph, kinds []core.Index) (core.Indexes, error) {
	var ix core.Indexes
	for _, x := range kinds {
		switch x {
		case core.PHLIndex:
			fmt.Println("building hub labels...")
			labels, err := phl.Build(g, phl.Options{})
			if err != nil {
				return ix, err
			}
			fmt.Printf("hub labels: %d entries, %.1f per node\n", labels.Entries(), labels.AvgLabelSize())
			ix.PHL = labels
		case core.GTreeIndex:
			fmt.Println("building G-tree...")
			tr, err := gtree.Build(g, gtree.Options{})
			if err != nil {
				return ix, err
			}
			ix.GTree = tr
		}
	}
	return ix, nil
}
