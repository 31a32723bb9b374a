package exp

import (
	"errors"
	"time"

	"fannr/internal/gtree"
	"fannr/internal/phl"
	"fannr/internal/rtree"
	"fannr/internal/workload"
)

// fig9 — index construction time and size of G-tree vs hub labeling (the
// paper's PHL) across the Table III datasets. PHL exceeds its memory
// budget on the largest datasets (the paper: "PHL only can build index
// for the first 5 datasets before exceeding the memory capacity"), which
// the entry budget reproduces.
//
// Datasets are loaded at Cfg.Scale/8 so the full seven-network sweep stays
// laptop-sized; relative ordering is what the figure is about. It reads
// nothing of e but Cfg.
func fig9(e *Env) ([]*Table, error) {
	scale := e.Cfg.Scale / 8
	ticks := make([]tickSpec, len(workload.TableIII))
	for i, spec := range workload.TableIII {
		ticks[i].label = spec.Name
	}
	sizeTbl := newTable("fig9a", "index size across datasets", "dataset", "index MB", ticks, "G-tree", "PHL")
	timeTbl := newTable("fig9b", "index construction time across datasets", "dataset", "build seconds", ticks, "G-tree", "PHL")
	for _, spec := range workload.TableIII {
		g, err := workload.LoadDataset(spec.Name, scale)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		tr, err := gtree.Build(g, gtree.Options{MaxLeafSize: gtreeLeafFor(spec.Name)})
		if err != nil {
			return nil, err
		}
		gtTime, gtSize := Cell{Value: time.Since(start).Seconds()}, Cell{Value: float64(tr.Stats().MemoryBytes) / 1e6}

		start = time.Now()
		ix, err := phl.Build(g, phl.Options{MaxEntries: e.Cfg.PHLBudget})
		switch {
		case errors.Is(err, phl.ErrBudget):
			oom := Cell{Note: "OOM", Skip: true}
			timeTbl.push(gtTime, oom)
			sizeTbl.push(gtSize, oom)
		case err != nil:
			return nil, err
		default:
			timeTbl.push(gtTime, Cell{Value: time.Since(start).Seconds()})
			sizeTbl.push(gtSize, Cell{Value: float64(ix.MemoryBytes()) / 1e6})
		}
	}
	return []*Table{sizeTbl, timeTbl}, nil
}

// appendixA — index cost of the R-tree over Q vs the G-tree occurrence
// list (Occ), varying M. The paper's conclusion: both are negligible next
// to query cost, so the choice between GTree and IER-GTree is not driven
// by Q-side index cost.
func appendixA(e *Env) ([]*Table, error) {
	timeTbl := newTable("appendixA-time", "Q-side index build time: R-tree vs Occ", "M", "build microseconds", size.ticks, "R-tree", "Occ")
	sizeTbl := newTable("appendixA-size", "Q-side index size: R-tree vs Occ", "M", "KB", size.ticks, "R-tree", "Occ")
	const reps = 16
	for _, tick := range size.ticks {
		Q := e.Gen.UniformQ(tick.params.A, tick.params.M)
		pts := make([]rtree.Point, len(Q))
		for i, q := range Q {
			x, y := e.G.Coord(q)
			pts[i] = rtree.Point{X: x, Y: y, ID: q}
		}
		var rt *rtree.Tree
		start := time.Now()
		for r := 0; r < reps; r++ {
			buf := append([]rtree.Point(nil), pts...)
			rt = rtree.BulkLoad(buf, rtree.DefaultFanout)
		}
		rtTime := time.Since(start) / reps
		var occ *gtree.ObjectSet
		start = time.Now()
		for r := 0; r < reps; r++ {
			occ = e.GTree.NewObjectSet(Q)
		}
		occTime := time.Since(start) / reps
		timeTbl.push(Cell{Value: float64(rtTime.Microseconds())}, Cell{Value: float64(occTime.Microseconds())})
		sizeTbl.push(Cell{Value: float64(rt.Stats().MemoryBytes) / 1024}, Cell{Value: float64(occ.MemoryBytes()) / 1024})
	}
	return []*Table{timeTbl, sizeTbl}, nil
}
