package exp

import (
	"errors"
	"sync/atomic"
	"time"

	"fannr/internal/core"
	"fannr/internal/graph"
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
	kAns   int // answers per query; 0, as most sweeps leave it, is 1
}

// entry is an algorithm entry point over a workload instance.
type entry func(g *graph.Graph, gp core.GPhi, inst *workloadInstance, k int) ([]core.Answer, error)

// onQuery is an entry point that reads only the instance's query.
func onQuery(f func(*graph.Graph, core.GPhi, core.Query, int) ([]core.Answer, error)) entry {
	return func(g *graph.Graph, gp core.GPhi, inst *workloadInstance, k int) ([]core.Answer, error) {
		return f(g, gp, inst.query, k)
	}
}

var (
	gd       = onQuery(core.GD)
	rlist    = onQuery(core.RList)
	exactMax = onQuery(core.ExactMax)
	apxSum   = onQuery(core.APXSum)
	// ierKNN reads the instance's R-tree, built outside the timed region.
	ierKNN entry = func(g *graph.Graph, gp core.GPhi, inst *workloadInstance, k int) ([]core.Answer, error) {
		return core.IERKNN(g, inst.rtP, gp, inst.query, k)
	}
)

// algoSpec is one series: a named algorithm run on its own private
// instance of the named engine (build makes it). Engines must not be
// shared between specs — a run that overruns its budget is abandoned
// mid-flight, poisoning its engine's scratch state.
type algoSpec struct {
	name   string
	agg    core.Aggregate
	engine string
	run    entry
	gp     core.GPhi
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
				dur, dnf, err := timedRun(func() error {
					_, err := algo.run(e.G, algo.gp, inst, max(tick.kAns, 1))
					return err
				}, budget, &flag)
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

// build gives every spec a private instance of its engine.
func (e *Env) build(specs ...algoSpec) ([]algoSpec, error) {
	for i := range specs {
		gp, err := e.newEngine(specs[i].engine)
		if err != nil {
			return nil, err
		}
		specs[i].gp = gp
	}
	return specs, nil
}

// perEngine returns one max series of run per g_φ engine: GD (Fig. 3a),
// the IER-kNN framework (Fig. 3b, 5a, 6a, 7a, 8a) and Exact-max
// (Table V).
func (e *Env) perEngine(run entry) ([]algoSpec, error) {
	specs := make([]algoSpec, len(EngineNames))
	for i, name := range EngineNames {
		specs[i] = algoSpec{name: name, agg: core.Max, engine: name, run: run}
	}
	return e.build(specs...)
}

// mainAlgos returns the paper's headline algorithm set (Fig. 4a, 5b, 6b,
// 7b, 8b, 10, 12a): GD and R-List with the fastest engine (PHL), the
// IER-kNN framework with PHL, and the two specific algorithms with
// index-free engines.
func (e *Env) mainAlgos() ([]algoSpec, error) {
	return e.build(
		algoSpec{name: "GD", agg: core.Max, engine: "PHL", run: gd},
		algoSpec{name: "R-List", agg: core.Max, engine: "PHL", run: rlist},
		algoSpec{name: "IER-PHL", agg: core.Max, engine: "PHL", run: ierKNN},
		algoSpec{name: "Exact-max", agg: core.Max, engine: "INE", run: exactMax},
		algoSpec{name: "APX-sum", agg: core.Sum, engine: "INE", run: apxSum},
	)
}

// baselineAlgos compares the index-free Baseline (GD with INE) against
// R-List with INE (Fig. 4b).
func (e *Env) baselineAlgos() ([]algoSpec, error) {
	return e.build(
		algoSpec{name: "Baseline", agg: core.Max, engine: "INE", run: gd},
		algoSpec{name: "R-List", agg: core.Max, engine: "INE", run: rlist},
	)
}

// newEngine builds an uncached, privately-owned engine instance.
func (e *Env) newEngine(name string) (core.GPhi, error) {
	return e.buildEngine(name)
}

// sumMaxAlgos pairs each universal algorithm with both aggregates
// (Appendix C: sum-FANN_R and max-FANN_R run in comparable time).
func (e *Env) sumMaxAlgos() ([]algoSpec, error) {
	var specs []algoSpec
	for _, agg := range []core.Aggregate{core.Max, core.Sum} {
		specs = append(specs,
			algoSpec{name: "GD-" + agg.String(), agg: agg, engine: "PHL", run: gd},
			algoSpec{name: "R-List-" + agg.String(), agg: agg, engine: "PHL", run: rlist},
			algoSpec{name: "IER-PHL-" + agg.String(), agg: agg, engine: "PHL", run: ierKNN},
		)
	}
	return e.build(specs...)
}
