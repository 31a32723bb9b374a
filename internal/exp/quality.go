package exp

import (
	"math"

	"fannr/internal/core"
	"fannr/internal/workload"
)

// ratioSweep measures the APX-sum approximation ratio (Fig. 11, Fig. 12b,
// Appendix B): per tick it runs APX-sum and an exact sum-FANN_R reference
// (IER-kNN with PHL) on the same instances and reports the mean ratio and
// its standard deviation (the paper's error bars).
func (e *Env) ratioSweep(id, title, xlabel string, ticks []tickSpec) (*Table, error) {
	exact, err := e.newEngine("PHL")
	if err != nil {
		return nil, err
	}
	apx := core.NewINE(e.G)
	tbl := &Table{
		ID:     id,
		Title:  title,
		XLabel: xlabel,
		YLabel: "APX-sum approximation ratio (mean, std over queries)",
		Series: []Series{{Name: "mean"}, {Name: "std"}, {Name: "worst"}},
	}
	for _, tick := range ticks {
		tbl.Ticks = append(tbl.Ticks, tick.label)
		insts := e.generate(tick.params)
		ratios := e.measureRatios(insts, exact, apx)
		mean, std, worst := summarize(ratios)
		if len(ratios) == 0 {
			for i := range tbl.Series {
				tbl.Series[i].Cells = append(tbl.Series[i].Cells, Cell{Skip: true})
			}
			continue
		}
		tbl.Series[0].Cells = append(tbl.Series[0].Cells, Cell{Value: mean})
		tbl.Series[1].Cells = append(tbl.Series[1].Cells, Cell{Value: std})
		tbl.Series[2].Cells = append(tbl.Series[2].Cells, Cell{Value: worst})
	}
	return tbl, nil
}

func (e *Env) measureRatios(insts []workloadInstance, exact, apx core.GPhi) []float64 {
	var ratios []float64
	for qi := range insts {
		q := insts[qi].query
		q.Agg = core.Sum
		want, err := core.IERKNN(e.G, insts[qi].rtP, exact, q, 1)
		if err != nil {
			continue
		}
		got, err := core.APXSum(e.G, apx, q, 1)
		if err != nil {
			continue
		}
		if want[0].Dist <= 0 {
			ratios = append(ratios, 1)
			continue
		}
		ratios = append(ratios, got[0].Dist/want[0].Dist)
	}
	return ratios
}

func summarize(vals []float64) (mean, std, worst float64) {
	if len(vals) == 0 {
		return 0, 0, 0
	}
	for _, v := range vals {
		mean += v
		if v > worst {
			worst = v
		}
	}
	mean /= float64(len(vals))
	for _, v := range vals {
		std += (v - mean) * (v - mean)
	}
	std = math.Sqrt(std / float64(len(vals)))
	return mean, std, worst
}

// Fig11 — approximation quality of APX-sum varying d and φ.
func Fig11(cfg Config) ([]*Table, error) {
	e, err := NewEnv(cfg)
	if err != nil {
		return nil, err
	}
	return e.Fig11()
}

// Fig11 runs the experiment on an existing Env.
func (e *Env) Fig11() ([]*Table, error) {
	a, err := e.ratioSweep("fig11a", "APX-sum quality, varying density d", "d", densitySweep())
	if err != nil {
		return nil, err
	}
	b, err := e.ratioSweep("fig11b", "APX-sum quality, varying flexibility phi", "phi", phiSweep())
	if err != nil {
		return nil, err
	}
	return []*Table{a, b}, nil
}

// AppendixB — APX-sum quality varying the remaining factors A, M, C.
func AppendixB(cfg Config) ([]*Table, error) {
	e, err := NewEnv(cfg)
	if err != nil {
		return nil, err
	}
	return e.AppendixB()
}

// AppendixB runs the experiment on an existing Env.
func (e *Env) AppendixB() ([]*Table, error) {
	var out []*Table
	for _, s := range []struct {
		id, title, xlabel string
		ticks             []tickSpec
	}{
		{"appendixB-A", "APX-sum quality, varying coverage A", "A", coverageSweep()},
		{"appendixB-M", "APX-sum quality, varying |Q| = M", "M", sizeSweep()},
		{"appendixB-C", "APX-sum quality, varying clusters C", "C", clusterSweep()},
	} {
		tbl, err := e.ratioSweep(s.id, s.title, s.xlabel, s.ticks)
		if err != nil {
			return nil, err
		}
		out = append(out, tbl)
	}
	return out, nil
}

// Fig12 — real-world POIs: P ∈ {FF, PO}, Q ∈ {HOS, UNI}. Panel (a) is
// algorithm efficiency, panel (b) the APX-sum ratio, per layer pair.
func Fig12(cfg Config) ([]*Table, error) {
	e, err := NewEnv(cfg)
	if err != nil {
		return nil, err
	}
	return e.Fig12()
}

// Fig12 runs the experiment on an existing Env.
func (e *Env) Fig12() ([]*Table, error) {
	pairs := []struct{ pLayer, qLayer string }{
		{"FF", "HOS"}, {"FF", "UNI"}, {"PO", "HOS"}, {"PO", "UNI"},
	}
	ticks := make([]tickSpec, 0, len(pairs))
	instsPerTick := make([][]workloadInstance, 0, len(pairs))
	for _, pr := range pairs {
		pSpec, err := findLayer(pr.pLayer)
		if err != nil {
			return nil, err
		}
		qSpec, err := findLayer(pr.qLayer)
		if err != nil {
			return nil, err
		}
		insts := make([]workloadInstance, e.Cfg.Queries)
		for qi := range insts {
			P := e.Gen.POI(pSpec)
			Q := e.Gen.POI(qSpec)
			insts[qi] = workloadInstance{
				query: core.Query{P: P, Q: Q, Phi: 0.5},
				rtP:   core.BuildPTree(e.G, P),
			}
		}
		ticks = append(ticks, tickSpec{label: "P=" + pr.pLayer + ",Q=" + pr.qLayer})
		instsPerTick = append(instsPerTick, insts)
	}

	algos, err := e.mainAlgos()
	if err != nil {
		return nil, err
	}
	effTbl := e.runPrepared("fig12a", "efficiency on real-world POI layers",
		"P,Q layers", "avg seconds per query", ticks, instsPerTick, algos)

	exact, err := e.newEngine("PHL")
	if err != nil {
		return nil, err
	}
	apx := core.NewINE(e.G)
	qualTbl := &Table{
		ID:     "fig12b",
		Title:  "APX-sum quality on real-world POI layers",
		XLabel: "P,Q layers",
		YLabel: "APX-sum approximation ratio",
		Series: []Series{{Name: "mean"}, {Name: "std"}, {Name: "worst"}},
	}
	for ti := range ticks {
		qualTbl.Ticks = append(qualTbl.Ticks, ticks[ti].label)
		ratios := e.measureRatios(instsPerTick[ti], exact, apx)
		mean, std, worst := summarize(ratios)
		qualTbl.Series[0].Cells = append(qualTbl.Series[0].Cells, Cell{Value: mean})
		qualTbl.Series[1].Cells = append(qualTbl.Series[1].Cells, Cell{Value: std})
		qualTbl.Series[2].Cells = append(qualTbl.Series[2].Cells, Cell{Value: worst})
	}
	return []*Table{effTbl, qualTbl}, nil
}

func findLayer(name string) (workload.POILayer, error) {
	return workload.FindPOILayer(name)
}
