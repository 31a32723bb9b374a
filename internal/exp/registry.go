package exp

import (
	"fmt"
	"sort"
	"time"

	"fannr/internal/workload"
)

// experiment regenerates one figure or table of the paper as one or more
// tables.
type experiment struct {
	run func(*Env) ([]*Table, error)
	// ownGraphs marks the experiment that loads its own datasets (Fig. 9)
	// and reads nothing of its Env but Cfg, so Run builds no Env for it.
	ownGraphs bool
}

// Registry maps experiment ids to experiments: every figure and table of
// the paper's evaluation section plus the full-paper appendices. Most are
// sweeps, one table per panel; the rest measure what a sweep cannot.
var Registry = map[string]experiment{
	"fig3a": {run: sweep(panel{"fig3a", "GD by g_phi engine, varying density d", maxY, density, perEngine(gd)})},
	"fig3b": {run: sweep(panel{"fig3b", "IER-kNN by g_phi engine, varying density d", maxY, density, perEngine(ierKNN)})},
	"fig4a": {run: sweep(panel{"fig4a", "all algorithms, varying density d", secondsY, density, mainAlgos})},
	"fig4b": {run: sweep(panel{"fig4b", "index-free Baseline vs R-List, varying density d",
		"avg seconds per query (max-FANN_R, g_phi = INE)", density, baselineAlgos})},
	"fig5":  {run: byEngineAndAll("fig5", coverage)},
	"fig6":  {run: byEngineAndAll("fig6", size)},
	"fig7":  {run: byEngineAndAll("fig7", clusters)},
	"fig8":  {run: byEngineAndAll("fig8", flexibility)},
	"fig9":  {run: fig9, ownGraphs: true},
	"fig10": {run: sweep(panel{"fig10", "k-FANN_R efficiency, varying k", "avg seconds per query (max aggregate)", answers, exactKAlgos})},
	"fig11": {run: sweep(quality("fig11a", density), quality("fig11b", flexibility))},
	"fig12": {run: fig12},
	"table5": {run: sweep(panel{"table5", "Exact-max with different g_phi engines, varying d",
		secondsY, density, perEngine(exactMax)})},
	"appendixA": {run: appendixA},
	"appendixB": {run: sweep(quality("appendixB-A", coverage), quality("appendixB-M", size), quality("appendixB-C", clusters))},
	"appendixC": {run: sweep(panel{"appendixC", "sum vs max running time parity, varying d", secondsY, density, sumMaxAlgos})},
	// Beyond the paper: g_φ evaluations per algorithm.
	"diagnostics": {run: diagnostics},
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

func lookup(id string) (experiment, error) {
	x, ok := Registry[id]
	if !ok {
		return x, fmt.Errorf("exp: unknown experiment %q (known: %v)", id, ExperimentIDs())
	}
	return x, nil
}

// Run regenerates the experiments named by ids, in order, building the
// dataset's Env at most once and only if one of them needs it. each is
// called once per id with its tables and wall time, and once before the
// first experiment that needs the Env with the id "env", no tables and
// the time the Env took to build. An unknown id fails before anything
// runs.
func Run(ids []string, cfg Config, each func(id string, tables []*Table, took time.Duration)) error {
	for _, id := range ids {
		if _, err := lookup(id); err != nil {
			return err
		}
	}
	cfg = cfg.withDefaults()
	var shared *Env
	for _, id := range ids {
		e := &Env{Cfg: cfg}
		if !Registry[id].ownGraphs {
			if shared == nil {
				start := time.Now()
				var err error
				if shared, err = NewEnv(cfg); err != nil {
					return err
				}
				each("env", nil, time.Since(start))
			}
			e = shared
		}
		start := time.Now()
		tables, err := e.Run(id)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		each(id, tables, time.Since(start))
	}
	return nil
}

// Run regenerates one experiment on e. It first re-seeds e.Gen with
// Cfg.Seed, so an experiment draws the same instances whether it runs
// alone or after others on the same Env.
func (e *Env) Run(id string) ([]*Table, error) {
	x, err := lookup(id)
	if err != nil {
		return nil, err
	}
	if !x.ownGraphs {
		e.Gen = workload.NewGenerator(e.G, e.Cfg.Seed)
	}
	return x.run(e)
}
