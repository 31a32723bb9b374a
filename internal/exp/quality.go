package exp

import (
	"math"

	"fannr/internal/core"
	"fannr/internal/workload"
)

// quality is the panel of the APX-sum approximation ratio along x (Fig. 11,
// Appendix B).
func quality(id string, x axis) panel {
	return panel{id: id, title: "APX-sum quality, varying " + x.phrase,
		ylabel: "APX-sum approximation ratio (mean, std over queries)", x: x}
}

// ratioTable measures the APX-sum approximation ratio (Fig. 11, Fig. 12b,
// Appendix B): per tick it runs APX-sum and an exact sum-FANN_R reference
// (IER-kNN with PHL) on the same instances and reports the mean ratio,
// its standard deviation (the paper's error bars) and the worst ratio.
func (e *Env) ratioTable(id, title, xlabel, ylabel string, ticks []tickSpec, instsPerTick [][]workloadInstance) (*Table, error) {
	exact, err := e.Engine("PHL")
	if err != nil {
		return nil, err
	}
	apx := core.NewINE(e.G)
	tbl := newTable(id, title, xlabel, ylabel, ticks, "mean", "std", "worst")
	for _, insts := range instsPerTick {
		tbl.pushRatios(e.measureRatios(insts, exact, apx))
	}
	return tbl, nil
}

// pushRatios appends one tick of a ratio table: the mean, std and worst
// of ratios, or a skip in all three when no instance gave a ratio.
func (t *Table) pushRatios(ratios []float64) {
	if len(ratios) == 0 {
		t.push(Cell{Skip: true}, Cell{Skip: true}, Cell{Skip: true})
		return
	}
	mean, std, worst := summarize(ratios)
	t.push(Cell{Value: mean}, Cell{Value: std}, Cell{Value: worst})
}

// measureRatios runs each side on a Scratch of its own, where its answer
// stays until the two are compared.
func (e *Env) measureRatios(insts []workloadInstance, exact, apx core.GPhi) []float64 {
	var ratios []float64
	exactScratch, apxScratch := core.NewScratch(), core.NewScratch()
	for qi := range insts {
		q := insts[qi].query
		q.Agg, q.Scratch = core.Sum, exactScratch
		want, err := core.IERKNN(e.G, insts[qi].rtP, exact, q, 1)
		if err != nil {
			continue
		}
		q.Scratch = apxScratch
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

// fig12 — real-world POIs: P ∈ {FF, PO}, Q ∈ {HOS, UNI}. Panel (a) is
// algorithm efficiency, panel (b) the APX-sum ratio, per layer pair, both
// over the same instances.
func fig12(e *Env) ([]*Table, error) {
	pairs := []struct{ pLayer, qLayer string }{
		{"FF", "HOS"}, {"FF", "UNI"}, {"PO", "HOS"}, {"PO", "UNI"},
	}
	ticks := make([]tickSpec, 0, len(pairs))
	instsPerTick := make([][]workloadInstance, 0, len(pairs))
	for _, pr := range pairs {
		pSpec, err := workload.FindPOILayer(pr.pLayer)
		if err != nil {
			return nil, err
		}
		qSpec, err := workload.FindPOILayer(pr.qLayer)
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

	algos, err := e.build(mainAlgos)
	if err != nil {
		return nil, err
	}
	effTbl := e.timeTable("fig12a", "efficiency on real-world POI layers",
		"P,Q layers", secondsY, ticks, instsPerTick, algos)
	qualTbl, err := e.ratioTable("fig12b", "APX-sum quality on real-world POI layers",
		"P,Q layers", "APX-sum approximation ratio", ticks, instsPerTick)
	if err != nil {
		return nil, err
	}
	return []*Table{effTbl, qualTbl}, nil
}
