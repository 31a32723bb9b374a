package exp

import (
	"math"
	"math/rand"
	"time"

	"fannr/internal/core"
	"fannr/internal/graph"
	"fannr/internal/gtree"
	"fannr/internal/sp"
	"fannr/internal/workload"
)

// Ablation experiments for the design choices DESIGN.md calls out. These
// go beyond the paper's figures: they quantify (1) the cheap d(p,Q) bound
// of §III-C against the full flexible Euclidean aggregate g^ε_φ inside
// IER-kNN, and (2) the cost and necessity of the G-tree global-matrix
// refinement pass this implementation adds.

// AblationBound — IER-kNN with the O(|Q|) flexible Euclidean aggregate
// bound vs the O(1) cheap MBR bound, across the density sweep. The tight
// bound prunes more candidates; the cheap bound costs less per entry.
func AblationBound(cfg Config) ([]*Table, error) {
	e, err := NewEnv(cfg)
	if err != nil {
		return nil, err
	}
	return e.AblationBound()
}

// AblationBound runs the experiment on an existing Env.
func (e *Env) AblationBound() ([]*Table, error) {
	tight, err := e.newEngine("PHL")
	if err != nil {
		return nil, err
	}
	cheap, err := e.newEngine("PHL")
	if err != nil {
		return nil, err
	}
	algos := []algoSpec{
		{name: "g^eps_phi", agg: core.Max, run: func(inst *workloadInstance, _ tickSpec) error {
			_, err := core.IERKNN(e.G, inst.rtP, tight, inst.query, core.IEROptions{})
			return err
		}},
		{name: "cheap d(p,Q)", agg: core.Max, run: func(inst *workloadInstance, _ tickSpec) error {
			_, err := core.IERKNN(e.G, inst.rtP, cheap, inst.query, core.IEROptions{CheapBound: true})
			return err
		}},
	}
	timeTbl := e.runSweep("ablation-bound", "IER-kNN bound ablation: g^eps_phi vs cheap d(p,Q)",
		"d", "avg seconds per query", densitySweep(), algos)

	// Second table: how many g_φ evaluations each bound admits.
	evalTbl := &Table{
		ID:     "ablation-bound-evals",
		Title:  "g_phi evaluations admitted per bound",
		XLabel: "d",
		YLabel: "avg g_phi evaluations per query",
		Series: []Series{{Name: "g^eps_phi"}, {Name: "cheap d(p,Q)"}},
	}
	for _, tick := range densitySweep() {
		evalTbl.Ticks = append(evalTbl.Ticks, tick.label)
		insts := e.generate(tick.params)
		for si, cheapBound := range []bool{false, true} {
			gp := core.NewINE(e.G)
			var st core.Stats
			runs := 0
			for qi := range insts {
				q := insts[qi].query
				q.Agg = core.Max
				q.Stats = &st
				if _, err := core.IERKNN(e.G, insts[qi].rtP, gp, q, core.IEROptions{CheapBound: cheapBound}); err == nil {
					runs++
				}
			}
			cell := Cell{Skip: runs == 0}
			if runs > 0 {
				cell.Value = float64(st.GPhiEvals) / float64(runs)
			}
			evalTbl.Series[si].Cells = append(evalTbl.Series[si].Cells, cell)
		}
	}
	return []*Table{timeTbl, evalTbl}, nil
}

// AblationRefine — G-tree with vs without the top-down global-matrix
// refinement: build time, index size, and the fraction and magnitude of
// distance-query overestimates the unrefined (published bottom-up)
// construction produces.
func AblationRefine(cfg Config) ([]*Table, error) {
	cfg = cfg.withDefaults()
	g, err := workload.LoadDataset(cfg.Dataset, cfg.Scale)
	if err != nil {
		return nil, err
	}
	tbl := &Table{
		ID:     "ablation-refine",
		Title:  "G-tree global-matrix refinement ablation",
		XLabel: "variant",
		YLabel: "build seconds / index MB / overestimate rate / mean excess",
		Ticks:  []string{"refined", "unrefined"},
		Series: []Series{
			{Name: "build (s)"},
			{Name: "size (MB)"},
			{Name: "overest. rate"},
			{Name: "mean excess %"},
		},
	}
	d := sp.NewDijkstra(g)
	rng := rand.New(rand.NewSource(cfg.Seed))
	const pairs = 300
	type pair struct{ u, v graph.NodeID }
	ps := make([]pair, pairs)
	truth := make([]float64, pairs)
	for i := range ps {
		ps[i] = pair{graph.NodeID(rng.Intn(g.NumNodes())), graph.NodeID(rng.Intn(g.NumNodes()))}
		truth[i] = d.Dist(ps[i].u, ps[i].v)
	}
	for _, skip := range []bool{false, true} {
		start := time.Now()
		tr, err := gtree.Build(g, gtree.Options{
			MaxLeafSize:    gtreeLeafFor(cfg.Dataset),
			SkipRefinement: skip,
		})
		if err != nil {
			return nil, err
		}
		build := time.Since(start).Seconds()
		q := tr.NewQuerier()
		over, finiteOver := 0, 0
		excess := 0.0
		for i, p := range ps {
			got := q.Dist(p.u, p.v)
			if math.IsInf(truth[i], 1) {
				continue
			}
			if got > truth[i]+1e-6 {
				over++
				// Without refinement a connected pair can even look
				// disconnected (its only path leaves the subtree); keep
				// the excess statistic over finite overestimates.
				if !math.IsInf(got, 1) {
					finiteOver++
					excess += (got - truth[i]) / truth[i]
				}
			}
		}
		rate := float64(over) / float64(pairs)
		meanExcess := 0.0
		if finiteOver > 0 {
			meanExcess = 100 * excess / float64(finiteOver)
		}
		tbl.Series[0].Cells = append(tbl.Series[0].Cells, Cell{Value: build})
		tbl.Series[1].Cells = append(tbl.Series[1].Cells, Cell{Value: float64(tr.Stats().MemoryBytes) / 1e6})
		tbl.Series[2].Cells = append(tbl.Series[2].Cells, Cell{Value: rate})
		tbl.Series[3].Cells = append(tbl.Series[3].Cells, Cell{Value: meanExcess})
	}
	return []*Table{tbl}, nil
}
