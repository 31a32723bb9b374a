package exp

import (
	"runtime"
	"strconv"
	"time"

	"fannr/internal/gtree"
	"fannr/internal/workload"
)

// BuildParallel — construction-time speedup of the Workers option: the
// G-tree built at 1, 2, 4, ... workers on one dataset. The 1-worker tick
// is the paper's sequential construction cost (Fig. 9(b) methodology);
// the remaining ticks show how the embarrassingly parallel passes (leaf
// matrices, assembly rows, refinement rows) scale. Speedups only
// materialize with spare cores — on a single-core host every tick
// collapses to the sequential time.
//
// Determinism is asserted, not assumed: the Workers=n G-tree must report
// the same matrix-cell count and border total as the Workers=1 build
// (gtree's tests check full bit-identity).
func BuildParallel(cfg Config) ([]*Table, error) {
	cfg = cfg.withDefaults()
	g, err := workload.LoadDataset(cfg.Dataset, cfg.Scale)
	if err != nil {
		return nil, err
	}
	tbl := &Table{
		ID:     "build-parallel",
		Title:  "index build seconds vs workers (" + g.Name() + ")",
		XLabel: "workers",
		YLabel: "build seconds",
		Series: []Series{{Name: "G-tree"}},
	}
	tiers := []int{1, 2, 4}
	if p := runtime.GOMAXPROCS(0); p > 4 {
		tiers = append(tiers, p)
	}
	var refStats gtree.Stats
	for _, workers := range tiers {
		tbl.Ticks = append(tbl.Ticks, strconv.Itoa(workers))

		start := time.Now()
		tr, err := gtree.Build(g, gtree.Options{Workers: workers})
		if err != nil {
			return nil, err
		}
		tbl.Series[0].Cells = append(tbl.Series[0].Cells, Cell{Value: time.Since(start).Seconds()})
		stats := tr.Stats()
		if workers == 1 {
			refStats = stats
		} else if stats.MatrixCells != refStats.MatrixCells || stats.Borders != refStats.Borders {
			return nil, errNondeterministicBuild
		}
	}
	return []*Table{tbl}, nil
}

var errNondeterministicBuild = errBuildParallel("parallel G-tree build diverged from sequential build")

type errBuildParallel string

func (e errBuildParallel) Error() string { return string(e) }
