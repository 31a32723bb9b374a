package exp

import (
	"errors"
	"sync/atomic"
	"time"

	"fannr/internal/core"
	"fannr/internal/rtree"
	"fannr/internal/workload"
)

// workloadInstance is one generated query input shared by every algorithm
// at a tick, so all series measure identical inputs. The R-tree over P is
// built outside the timed region — it is index cost, which the paper
// reports separately.
type workloadInstance struct {
	query core.Query
	rtP   *rtree.Tree
}

// tickSpec is one x-axis position of a sweep.
type tickSpec struct {
	label  string
	params workload.Params
	kAns   int // for k-FANN_R sweeps; 0 elsewhere
}

// algoSpec is one series: a named algorithm closed over its own private
// engine instance. Engines must not be shared between specs — a run that
// overruns its budget is abandoned mid-flight, poisoning its engine's
// scratch state.
type algoSpec struct {
	name string
	agg  core.Aggregate
	run  func(inst *workloadInstance, tick tickSpec) error
}

// timedRun executes run with a wall-clock budget. On overrun it trips the
// query's cooperative cancel flag and waits for the run to unwind, so no
// search ever keeps burning CPU behind later measurements.
func timedRun(run func() error, budget time.Duration, flag *atomic.Bool) (time.Duration, bool, error) {
	done := make(chan error, 1)
	start := time.Now()
	go func() { done <- run() }()
	timer := time.NewTimer(budget)
	defer timer.Stop()
	select {
	case err := <-done:
		if errors.Is(err, core.ErrCanceled) {
			return budget, true, nil
		}
		return time.Since(start), false, err
	case <-timer.C:
		flag.Store(true)
		err := <-done // join: the algorithms poll the flag at loop boundaries
		if err != nil && !errors.Is(err, core.ErrCanceled) {
			return budget, true, err
		}
		return budget, true, nil
	}
}

// runSweep measures every algorithm at every tick, averaging over
// cfg.Queries generated instances. An algorithm that exhausts the
// per-tick budget is marked DNF there and skipped at later ticks (sweeps
// are ordered so cost grows along the axis for the algorithms at risk,
// mirroring how the paper stops plotting Baseline past d = 10⁻²).
func (e *Env) runSweep(id, title, xlabel, ylabel string, ticks []tickSpec, algos []algoSpec) *Table {
	instsPerTick := make([][]workloadInstance, len(ticks))
	for i, tick := range ticks {
		instsPerTick[i] = e.generate(tick.params)
	}
	return e.runPrepared(id, title, xlabel, ylabel, ticks, instsPerTick, algos)
}

// runPrepared is runSweep over pre-generated instances (used by Fig. 12,
// whose workloads come from POI layers rather than the d/A/M/C factors).
func (e *Env) runPrepared(id, title, xlabel, ylabel string, ticks []tickSpec, instsPerTick [][]workloadInstance, algos []algoSpec) *Table {
	tbl := &Table{ID: id, Title: title, XLabel: xlabel, YLabel: ylabel}
	for _, t := range ticks {
		tbl.Ticks = append(tbl.Ticks, t.label)
	}
	for range algos {
		tbl.Series = append(tbl.Series, Series{})
	}
	for ai, a := range algos {
		tbl.Series[ai].Name = a.name
	}
	retired := make([]bool, len(algos))
	for ti, tick := range ticks {
		insts := instsPerTick[ti]
		for ai, algo := range algos {
			if retired[ai] {
				tbl.Series[ai].Cells = append(tbl.Series[ai].Cells, Cell{DNF: true})
				continue
			}
			var total time.Duration
			completed := 0
			var cell Cell
			for qi := range insts {
				inst := &insts[qi]
				inst.query.Agg = algo.agg
				budget := e.Cfg.Timeout - total
				if budget <= 0 {
					cell.DNF = true
					break
				}
				var flag atomic.Bool
				inst.query.Cancel = flag.Load
				dur, dnf, err := timedRun(func() error { return algo.run(inst, tick) }, budget, &flag)
				inst.query.Cancel = nil
				if dnf {
					cell.DNF = true
					break
				}
				if err != nil {
					cell.Note = "ERR"
					cell.Skip = true
					break
				}
				total += dur
				completed++
			}
			if cell.DNF {
				retired[ai] = true
			} else if completed > 0 {
				cell.Value = total.Seconds() / float64(completed)
			}
			tbl.Series[ai].Cells = append(tbl.Series[ai].Cells, cell)
		}
	}
	return tbl
}

// generate draws cfg.Queries workload instances for one parameter setting.
func (e *Env) generate(p workload.Params) []workloadInstance {
	out := make([]workloadInstance, e.Cfg.Queries)
	for i := range out {
		P := e.Gen.UniformP(p.D)
		var Q []int32
		if p.C <= 1 {
			Q = e.Gen.UniformQ(p.A, p.M)
		} else {
			Q = e.Gen.ClusteredQ(p.A, p.M, p.C)
		}
		out[i] = workloadInstance{
			query: core.Query{P: P, Q: Q, Phi: p.Phi},
			rtP:   core.BuildPTree(e.G, P),
		}
	}
	return out
}

// --- algorithm series builders -----------------------------------------

// gdAlgos returns one GD series per g_φ engine (Fig. 3a). Every spec gets
// a fresh private engine.
func (e *Env) gdAlgos() ([]algoSpec, error) {
	out := make([]algoSpec, 0, len(EngineNames))
	for _, name := range EngineNames {
		gp, err := e.newEngine(name)
		if err != nil {
			return nil, err
		}
		out = append(out, algoSpec{
			name: name,
			agg:  core.Max,
			run: func(inst *workloadInstance, _ tickSpec) error {
				_, err := core.GD(e.G, gp, inst.query)
				return err
			},
		})
	}
	return out, nil
}

// ierAlgos returns one IER-kNN-framework series per g_φ engine (Fig. 3b,
// 5a, 6a, 7a, 8a).
func (e *Env) ierAlgos() ([]algoSpec, error) {
	out := make([]algoSpec, 0, len(EngineNames))
	for _, name := range EngineNames {
		gp, err := e.newEngine(name)
		if err != nil {
			return nil, err
		}
		out = append(out, algoSpec{
			name: name,
			agg:  core.Max,
			run: func(inst *workloadInstance, _ tickSpec) error {
				_, err := core.IERKNN(e.G, inst.rtP, gp, inst.query)
				return err
			},
		})
	}
	return out, nil
}

// mainAlgos returns the paper's headline algorithm set (Fig. 4a, 5b, 6b,
// 7b, 8b, 12a): GD and R-List with the fastest engine (PHL), the IER-kNN
// framework with PHL, and the two specific algorithms with index-free
// engines.
func (e *Env) mainAlgos() ([]algoSpec, error) {
	gdPHL, err := e.newEngine("PHL")
	if err != nil {
		return nil, err
	}
	rlPHL, err := e.newEngine("PHL")
	if err != nil {
		return nil, err
	}
	ierPHL, err := e.newEngine("PHL")
	if err != nil {
		return nil, err
	}
	exINE := core.NewINE(e.G)
	apxINE := core.NewINE(e.G)
	return []algoSpec{
		{name: "GD", agg: core.Max, run: func(inst *workloadInstance, _ tickSpec) error {
			_, err := core.GD(e.G, gdPHL, inst.query)
			return err
		}},
		{name: "R-List", agg: core.Max, run: func(inst *workloadInstance, _ tickSpec) error {
			_, err := core.RList(e.G, rlPHL, inst.query)
			return err
		}},
		{name: "IER-PHL", agg: core.Max, run: func(inst *workloadInstance, _ tickSpec) error {
			_, err := core.IERKNN(e.G, inst.rtP, ierPHL, inst.query)
			return err
		}},
		{name: "Exact-max", agg: core.Max, run: func(inst *workloadInstance, _ tickSpec) error {
			_, err := core.ExactMax(e.G, exINE, inst.query)
			return err
		}},
		{name: "APX-sum", agg: core.Sum, run: func(inst *workloadInstance, _ tickSpec) error {
			_, err := core.APXSum(e.G, apxINE, inst.query)
			return err
		}},
	}, nil
}

// baselineAlgos compares the index-free Baseline (GD with INE) against
// R-List with INE (Fig. 4b).
func (e *Env) baselineAlgos() []algoSpec {
	bINE := core.NewINE(e.G)
	rINE := core.NewINE(e.G)
	return []algoSpec{
		{name: "Baseline", agg: core.Max, run: func(inst *workloadInstance, _ tickSpec) error {
			_, err := core.GD(e.G, bINE, inst.query)
			return err
		}},
		{name: "R-List", agg: core.Max, run: func(inst *workloadInstance, _ tickSpec) error {
			_, err := core.RList(e.G, rINE, inst.query)
			return err
		}},
	}
}

// exactMaxAlgos runs Exact-max under every g_φ engine (Table V).
func (e *Env) exactMaxAlgos() ([]algoSpec, error) {
	out := make([]algoSpec, 0, len(EngineNames))
	for _, name := range EngineNames {
		gp, err := e.newEngine(name)
		if err != nil {
			return nil, err
		}
		out = append(out, algoSpec{
			name: name,
			agg:  core.Max,
			run: func(inst *workloadInstance, _ tickSpec) error {
				_, err := core.ExactMax(e.G, gp, inst.query)
				return err
			},
		})
	}
	return out, nil
}

// kAlgos returns the k-FANN_R adaptations (Fig. 10).
func (e *Env) kAlgos() ([]algoSpec, error) {
	gdPHL, err := e.newEngine("PHL")
	if err != nil {
		return nil, err
	}
	rlPHL, err := e.newEngine("PHL")
	if err != nil {
		return nil, err
	}
	ierPHL, err := e.newEngine("PHL")
	if err != nil {
		return nil, err
	}
	exINE := core.NewINE(e.G)
	return []algoSpec{
		{name: "GD", agg: core.Max, run: func(inst *workloadInstance, tick tickSpec) error {
			_, err := core.KGD(e.G, gdPHL, inst.query, tick.kAns)
			return err
		}},
		{name: "R-List", agg: core.Max, run: func(inst *workloadInstance, tick tickSpec) error {
			_, err := core.KRList(e.G, rlPHL, inst.query, tick.kAns)
			return err
		}},
		{name: "IER-PHL", agg: core.Max, run: func(inst *workloadInstance, tick tickSpec) error {
			_, err := core.KIERKNN(e.G, inst.rtP, ierPHL, inst.query, tick.kAns)
			return err
		}},
		{name: "Exact-max", agg: core.Max, run: func(inst *workloadInstance, tick tickSpec) error {
			_, err := core.KExactMax(e.G, exINE, inst.query, tick.kAns)
			return err
		}},
	}, nil
}

// newEngine builds an uncached, privately-owned engine instance.
func (e *Env) newEngine(name string) (core.GPhi, error) {
	return e.buildEngine(name)
}

// sumMaxAlgos pairs each universal algorithm with both aggregates
// (Appendix C: sum-FANN_R and max-FANN_R run in comparable time).
func (e *Env) sumMaxAlgos() ([]algoSpec, error) {
	var out []algoSpec
	for _, agg := range []core.Aggregate{core.Max, core.Sum} {
		gd, err := e.newEngine("PHL")
		if err != nil {
			return nil, err
		}
		rl, err := e.newEngine("PHL")
		if err != nil {
			return nil, err
		}
		ier, err := e.newEngine("PHL")
		if err != nil {
			return nil, err
		}
		agg := agg
		out = append(out,
			algoSpec{name: "GD-" + agg.String(), agg: agg, run: func(inst *workloadInstance, _ tickSpec) error {
				_, err := core.GD(e.G, gd, inst.query)
				return err
			}},
			algoSpec{name: "R-List-" + agg.String(), agg: agg, run: func(inst *workloadInstance, _ tickSpec) error {
				_, err := core.RList(e.G, rl, inst.query)
				return err
			}},
			algoSpec{name: "IER-PHL-" + agg.String(), agg: agg, run: func(inst *workloadInstance, _ tickSpec) error {
				_, err := core.IERKNN(e.G, inst.rtP, ier, inst.query)
				return err
			}},
		)
	}
	return out, nil
}
