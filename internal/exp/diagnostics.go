package exp

import (
	"fannr/internal/core"
)

// diagnosticAlgos is every algorithm over one engine, PHL.
var diagnosticAlgos = []algoSpec{
	{name: "GD", agg: core.Max, engine: "PHL", run: gd},
	{name: "R-List", agg: core.Max, engine: "PHL", run: rlist},
	{name: "IER-kNN", agg: core.Max, engine: "PHL", run: ierKNN},
	{name: "Exact-max", agg: core.Max, engine: "PHL", run: exactMax},
	{name: "APX-sum", agg: core.Sum, engine: "PHL", run: apxSum},
}

// diagnostics — beyond the paper's plots: the average number of g_φ
// evaluations each algorithm performs per query across the density sweep.
// This is the quantity the paper's complexity arguments are really about
// (GD evaluates all of P; R-List stops at its threshold; IER-kNN prunes
// by Euclidean bounds; Exact-max evaluates exactly once; APX-sum at most
// |Q| candidates), shown directly rather than through wall-clock proxies.
func diagnostics(e *Env) ([]*Table, error) {
	var names []string
	for _, a := range diagnosticAlgos {
		names = append(names, a.name)
	}
	tbl := newTable("diagnostics", "avg g_phi evaluations per query (PHL engine), varying d",
		"d", "g_phi evaluations per query", density.ticks, append(names, "|P|")...)
	for _, insts := range e.draw(density.ticks) {
		specs, err := e.build(diagnosticAlgos) // fresh engines at every tick
		if err != nil {
			return nil, err
		}
		cells := make([]Cell, 0, len(specs)+1)
		for _, a := range specs {
			var st core.Stats
			runs := 0
			for qi := range insts {
				q := insts[qi].query
				q.Agg, q.Scratch, q.Stats = a.agg, a.scratch, &st
				if _, err := a.run(e.G, a.gp, insts[qi].rtP, q, 1); err == nil {
					runs++
				}
			}
			cell := Cell{Skip: runs == 0}
			if runs > 0 {
				cell.Value = float64(st.GPhiEvals) / float64(runs)
			}
			cells = append(cells, cell)
		}
		avgP := 0.0
		for qi := range insts {
			avgP += float64(len(insts[qi].query.P))
		}
		tbl.push(append(cells, Cell{Value: avgP / float64(len(insts))})...)
	}
	return []*Table{tbl}, nil
}
