package exp

import (
	"fannr/internal/core"
)

// Diagnostics — beyond the paper's plots: the average number of g_φ
// evaluations each algorithm performs per query across the density sweep.
// This is the quantity the paper's complexity arguments are really about
// (GD evaluates all of P; R-List stops at its threshold; IER-kNN prunes
// by Euclidean bounds; Exact-max evaluates exactly once; APX-sum at most
// |Q| candidates), shown directly rather than through wall-clock proxies.
func Diagnostics(cfg Config) ([]*Table, error) {
	e, err := NewEnv(cfg)
	if err != nil {
		return nil, err
	}
	return e.Diagnostics()
}

// Diagnostics runs the experiment on an existing Env.
func (e *Env) Diagnostics() ([]*Table, error) {
	algos := []algoSpec{
		{name: "GD", agg: core.Max, engine: "PHL", run: gd},
		{name: "R-List", agg: core.Max, engine: "PHL", run: rlist},
		{name: "IER-kNN", agg: core.Max, engine: "PHL", run: ierKNN},
		{name: "Exact-max", agg: core.Max, engine: "PHL", run: exactMax},
		{name: "APX-sum", agg: core.Sum, engine: "PHL", run: apxSum},
	}
	tbl := &Table{
		ID:     "diagnostics",
		Title:  "avg g_phi evaluations per query (PHL engine), varying d",
		XLabel: "d",
		YLabel: "g_phi evaluations per query",
	}
	for _, a := range algos {
		tbl.Series = append(tbl.Series, Series{Name: a.name})
	}
	tbl.Series = append(tbl.Series, Series{Name: "|P|"})
	for _, tick := range densitySweep() {
		tbl.Ticks = append(tbl.Ticks, tick.label)
		insts := e.generate(tick.params)
		avgP := 0.0
		for qi := range insts {
			avgP += float64(len(insts[qi].query.P))
		}
		avgP /= float64(len(insts))
		specs, err := e.build(algos...) // fresh engines at every tick
		if err != nil {
			return nil, err
		}
		for ai, a := range specs {
			var st core.Stats
			runs := 0
			for qi := range insts {
				inst := &insts[qi]
				inst.query.Agg = a.agg
				inst.query.Stats = &st
				if _, err := a.run(e.G, a.gp, inst, 1); err == nil {
					runs++
				}
			}
			cell := Cell{Skip: runs == 0}
			if runs > 0 {
				cell.Value = float64(st.GPhiEvals) / float64(runs)
			}
			tbl.Series[ai].Cells = append(tbl.Series[ai].Cells, cell)
		}
		tbl.Series[len(algos)].Cells = append(tbl.Series[len(algos)].Cells, Cell{Value: avgP})
	}
	return []*Table{tbl}, nil
}
