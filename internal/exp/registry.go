package exp

import (
	"fmt"
	"sort"
)

// Driver regenerates one experiment of the paper as one or more tables.
type Driver func(Config) ([]*Table, error)

// Registry maps experiment ids to drivers: every figure and table of the
// paper's evaluation section plus the full-paper appendices.
var Registry = map[string]Driver{
	"fig3a":     Fig3a,
	"fig3b":     Fig3b,
	"fig4a":     Fig4a,
	"fig4b":     Fig4b,
	"fig5":      Fig5,
	"fig6":      Fig6,
	"fig7":      Fig7,
	"fig8":      Fig8,
	"fig9":      Fig9,
	"fig10":     Fig10,
	"fig11":     Fig11,
	"fig12":     Fig12,
	"table5":    TableV,
	"appendixA": AppendixA,
	"appendixB": AppendixB,
	"appendixC": AppendixC,
	// Beyond the paper: g_φ evaluations per algorithm.
	"diagnostics": Diagnostics,
}

// ExperimentIDs returns the registry keys sorted.
func ExperimentIDs() []string {
	ids := make([]string, 0, len(Registry))
	for id := range Registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Run dispatches an experiment id.
func Run(id string, cfg Config) ([]*Table, error) {
	d, ok := Registry[id]
	if !ok {
		return nil, fmt.Errorf("exp: unknown experiment %q (known: %v)", id, ExperimentIDs())
	}
	return d(cfg)
}
