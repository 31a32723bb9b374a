package exp

import (
	"context"
	"errors"
	"fmt"
	"slices"
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

// axis is one factor of §VI-B swept over the paper's tick values: the x
// label, the phrase titles name it by, and one tickSpec per value.
type axis struct {
	label, phrase string
	ticks         []tickSpec
}

// factor builds an axis over vals: format labels a tick by its value and
// set moves the tick's factor from the default to that value.
func factor[T any](label, phrase, format string, vals []T, set func(*tickSpec, T)) axis {
	x := axis{label: label, phrase: phrase}
	for _, v := range vals {
		t := tickSpec{label: fmt.Sprintf(format, v), params: workload.DefaultParams()}
		set(&t, v)
		x.ticks = append(x.ticks, t)
	}
	return x
}

// The sweep axes of the evaluation (§VI-B), each at the paper's ticks.
var (
	density = factor("d", "density d", "d=%g", []float64{0.0001, 0.001, 0.01, 0.1, 1},
		func(t *tickSpec, d float64) { t.params.D = d })
	coverage = factor("A", "coverage A", "A=%g%%", []float64{1, 5, 10, 15, 20},
		func(t *tickSpec, pct float64) { t.params.A = pct / 100 })
	size = factor("M", "|Q| = M", "M=%d", []int{64, 128, 256, 512, 1024},
		func(t *tickSpec, m int) { t.params.M = m })
	clusters = factor("C", "clusters C", "C=%d", []int{1, 2, 4, 6, 8},
		func(t *tickSpec, c int) { t.params.C = c })
	flexibility = factor("phi", "flexibility phi", "phi=%g", []float64{0.1, 0.3, 0.5, 0.7, 1.0},
		func(t *tickSpec, phi float64) { t.params.Phi = phi })
	answers = factor("k", "k", "k=%d", []int{1, 5, 10, 15, 20},
		func(t *tickSpec, k int) { t.kAns = k })
)

// The y labels of the timing tables.
const (
	secondsY = "avg seconds per query"
	maxY     = "avg seconds per query (max-FANN_R)"
)

// panel is one table of a sweep: the timing of an algorithm set along an
// axis, or, with no algorithms, the APX-sum approximation ratio along it.
type panel struct {
	id, title, ylabel string
	x                 axis
	algos             []algoSpec
}

// sweep is the experiment that renders each panel in turn, every one over
// instances drawn for it alone.
func sweep(panels ...panel) func(*Env) ([]*Table, error) {
	return func(e *Env) ([]*Table, error) {
		tables := make([]*Table, 0, len(panels))
		for _, p := range panels {
			insts := e.draw(p.x.ticks)
			if p.algos == nil {
				tbl, err := e.ratioTable(p.id, p.title, p.x.label, p.ylabel, p.x.ticks, insts)
				if err != nil {
					return nil, err
				}
				tables = append(tables, tbl)
				continue
			}
			algos, err := e.build(p.algos)
			if err != nil {
				return nil, err
			}
			tables = append(tables, e.timeTable(p.id, p.title, p.x.label, p.ylabel, p.x.ticks, insts, algos))
		}
		return tables, nil
	}
}

// byEngineAndAll is Figs. 5–8: the IER-kNN framework by g_φ engine
// (panel a) and all algorithms (panel b), each along x.
func byEngineAndAll(fig string, x axis) func(*Env) ([]*Table, error) {
	return sweep(
		panel{fig + "a", "IER-kNN by g_phi engine, varying " + x.phrase, maxY, x, perEngine(ierKNN)},
		panel{fig + "b", "all algorithms, varying " + x.phrase, secondsY, x, mainAlgos},
	)
}

// entry is an algorithm entry point over a workload instance's query and
// its R-tree over P.
type entry func(g *graph.Graph, gp core.GPhi, rtP *rtree.Tree, q core.Query, k int) ([]core.Answer, error)

// onQuery is an entry point that reads only the query.
func onQuery(f func(*graph.Graph, core.GPhi, core.Query, int) ([]core.Answer, error)) entry {
	return func(g *graph.Graph, gp core.GPhi, _ *rtree.Tree, q core.Query, k int) ([]core.Answer, error) {
		return f(g, gp, q, k)
	}
}

var (
	gd       = onQuery(core.GD)
	rlist    = onQuery(core.RList)
	exactMax = onQuery(core.ExactMax)
	apxSum   = onQuery(core.APXSum)
	// ierKNN reads the instance's R-tree, built outside the timed region.
	ierKNN entry = func(g *graph.Graph, gp core.GPhi, rtP *rtree.Tree, q core.Query, k int) ([]core.Answer, error) {
		return core.IERKNN(g, rtP, gp, q, k)
	}
)

// algoSpec is one series: a named algorithm run on its own private
// instance of the named engine and its own Scratch (build makes both), as
// a served query runs on the engine and Scratch it checked out.
type algoSpec struct {
	name    string
	agg     core.Aggregate
	engine  string
	run     entry
	gp      core.GPhi
	scratch *core.Scratch
}

// timeOne times the series on one instance within budget.
func (e *Env) timeOne(a *algoSpec, inst *workloadInstance, k int, budget time.Duration) (time.Duration, bool, error) {
	q := inst.query
	q.Agg, q.Scratch = a.agg, a.scratch
	return timedRun(&q, budget, func() error {
		_, err := a.run(e.G, a.gp, inst.rtP, q, k)
		return err
	})
}

// timedRun times run, a search over q, bound as a served request is: q's
// cancel hook follows a context whose deadline is the budget, and every
// algorithm polls it at its loop boundaries. A run the deadline overtakes
// is reported as the budget and DNF.
func timedRun(q *core.Query, budget time.Duration, run func() error) (time.Duration, bool, error) {
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	stop := q.BindContext(ctx)
	defer stop()
	start := time.Now()
	err := run()
	if ctx.Err() == nil {
		return time.Since(start), false, err
	}
	if errors.Is(err, core.ErrCanceled) {
		err = nil
	}
	return budget, true, err
}

// timeTable measures every algorithm at every tick, averaging over the
// tick's instances. An algorithm that exhausts the per-tick budget is
// marked DNF there and skipped at later ticks (sweeps are ordered so cost
// grows along the axis for the algorithms at risk, mirroring how the
// paper stops plotting Baseline past d = 10⁻²).
func (e *Env) timeTable(id, title, xlabel, ylabel string, ticks []tickSpec, instsPerTick [][]workloadInstance, algos []algoSpec) *Table {
	names := make([]string, len(algos))
	for ai, a := range algos {
		names[ai] = a.name
	}
	tbl := newTable(id, title, xlabel, ylabel, ticks, names...)
	retired := make([]bool, len(algos))
	for ti, tick := range ticks {
		insts := instsPerTick[ti]
		for ai := range algos {
			if retired[ai] {
				tbl.Series[ai].Cells = append(tbl.Series[ai].Cells, Cell{DNF: true})
				continue
			}
			var total time.Duration
			completed := 0
			var cell Cell
			for qi := range insts {
				budget := e.Cfg.Timeout - total
				if budget <= 0 {
					cell.DNF = true
					break
				}
				dur, dnf, err := e.timeOne(&algos[ai], &insts[qi], max(tick.kAns, 1), budget)
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

// draw generates each tick's instances, in tick order.
func (e *Env) draw(ticks []tickSpec) [][]workloadInstance {
	out := make([][]workloadInstance, len(ticks))
	for i, tick := range ticks {
		out[i] = e.generate(tick.params)
	}
	return out
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

// --- algorithm sets -----------------------------------------------------

// build gives every spec of a set a private instance of its engine and a
// Scratch of its own.
func (e *Env) build(set []algoSpec) ([]algoSpec, error) {
	specs := slices.Clone(set)
	for i := range specs {
		gp, err := e.Engine(specs[i].engine)
		if err != nil {
			return nil, err
		}
		specs[i].gp, specs[i].scratch = gp, core.NewScratch()
	}
	return specs, nil
}

// perEngine is one max series of run per g_φ engine: GD (Fig. 3a), the
// IER-kNN framework (Fig. 3b, 5a–8a) and Exact-max (Table V).
func perEngine(run entry) []algoSpec {
	specs := make([]algoSpec, len(EngineNames))
	for i, name := range EngineNames {
		specs[i] = algoSpec{name: name, agg: core.Max, engine: name, run: run}
	}
	return specs
}

var (
	// mainAlgos is the paper's headline algorithm set (Fig. 4a, 5b–8b,
	// 12a): GD and R-List with the fastest engine (PHL), the IER-kNN
	// framework with PHL, and the two specific algorithms with index-free
	// engines.
	mainAlgos = []algoSpec{
		{name: "GD", agg: core.Max, engine: "PHL", run: gd},
		{name: "R-List", agg: core.Max, engine: "PHL", run: rlist},
		{name: "IER-PHL", agg: core.Max, engine: "PHL", run: ierKNN},
		{name: "Exact-max", agg: core.Max, engine: "INE", run: exactMax},
		{name: "APX-sum", agg: core.Sum, engine: "INE", run: apxSum},
	}
	// exactKAlgos is Fig. 10's set, the paper's four exact adaptations:
	// APX-sum's ranks past 1 are heuristic, and it answers sum only.
	exactKAlgos = slices.DeleteFunc(slices.Clone(mainAlgos), func(a algoSpec) bool { return a.agg != core.Max })
	// baselineAlgos compares the index-free Baseline (GD with INE) against
	// R-List with INE (Fig. 4b).
	baselineAlgos = []algoSpec{
		{name: "Baseline", agg: core.Max, engine: "INE", run: gd},
		{name: "R-List", agg: core.Max, engine: "INE", run: rlist},
	}
	// sumMaxAlgos pairs each universal algorithm with both aggregates
	// (Appendix C: sum-FANN_R and max-FANN_R run in comparable time).
	sumMaxAlgos = func() []algoSpec {
		var specs []algoSpec
		for _, agg := range []core.Aggregate{core.Max, core.Sum} {
			specs = append(specs,
				algoSpec{name: "GD-" + agg.String(), agg: agg, engine: "PHL", run: gd},
				algoSpec{name: "R-List-" + agg.String(), agg: agg, engine: "PHL", run: rlist},
				algoSpec{name: "IER-PHL-" + agg.String(), agg: agg, engine: "PHL", run: ierKNN},
			)
		}
		return specs
	}()
)
