package exp

import (
	"fmt"
	"slices"

	"fannr/internal/core"
	"fannr/internal/workload"
)

// Sweep axes used across the evaluation (§VI-B). Each matches the paper's
// tick values exactly.
var (
	densityTicks  = []float64{0.0001, 0.001, 0.01, 0.1, 1}
	coverageTicks = []float64{0.01, 0.05, 0.10, 0.15, 0.20}
	sizeTicks     = []int{64, 128, 256, 512, 1024}
	clusterTicks  = []int{1, 2, 4, 6, 8}
	phiTicks      = []float64{0.1, 0.3, 0.5, 0.7, 1.0}
	kTicks        = []int{1, 5, 10, 15, 20}
)

func densitySweep() []tickSpec {
	out := make([]tickSpec, 0, len(densityTicks))
	for _, d := range densityTicks {
		p := workload.DefaultParams()
		p.D = d
		out = append(out, tickSpec{label: fmt.Sprintf("d=%g", d), params: p})
	}
	return out
}

func coverageSweep() []tickSpec {
	out := make([]tickSpec, 0, len(coverageTicks))
	for _, a := range coverageTicks {
		p := workload.DefaultParams()
		p.A = a
		out = append(out, tickSpec{label: fmt.Sprintf("A=%g%%", a*100), params: p})
	}
	return out
}

func sizeSweep() []tickSpec {
	out := make([]tickSpec, 0, len(sizeTicks))
	for _, m := range sizeTicks {
		p := workload.DefaultParams()
		p.M = m
		out = append(out, tickSpec{label: fmt.Sprintf("M=%d", m), params: p})
	}
	return out
}

func clusterSweep() []tickSpec {
	out := make([]tickSpec, 0, len(clusterTicks))
	for _, c := range clusterTicks {
		p := workload.DefaultParams()
		p.C = c
		out = append(out, tickSpec{label: fmt.Sprintf("C=%d", c), params: p})
	}
	return out
}

func phiSweep() []tickSpec {
	out := make([]tickSpec, 0, len(phiTicks))
	for _, phi := range phiTicks {
		p := workload.DefaultParams()
		p.Phi = phi
		out = append(out, tickSpec{label: fmt.Sprintf("phi=%g", phi), params: p})
	}
	return out
}

func kSweep() []tickSpec {
	out := make([]tickSpec, 0, len(kTicks))
	for _, k := range kTicks {
		out = append(out, tickSpec{label: fmt.Sprintf("k=%d", k), params: workload.DefaultParams(), kAns: k})
	}
	return out
}

// Fig3a — efficiency of GD implemented by different g_φ engines, varying
// the density d of P.
func Fig3a(cfg Config) ([]*Table, error) {
	e, err := NewEnv(cfg)
	if err != nil {
		return nil, err
	}
	return e.Fig3a()
}

// Fig3a runs the experiment on an existing Env.
func (e *Env) Fig3a() ([]*Table, error) {
	algos, err := e.perEngine(gd)
	if err != nil {
		return nil, err
	}
	return []*Table{e.runSweep("fig3a", "GD by g_phi engine, varying density d",
		"d", "avg seconds per query (max-FANN_R)", densitySweep(), algos)}, nil
}

// Fig3b — efficiency of the IER-kNN framework by g_φ engine, varying d.
func Fig3b(cfg Config) ([]*Table, error) {
	e, err := NewEnv(cfg)
	if err != nil {
		return nil, err
	}
	return e.Fig3b()
}

// Fig3b runs the experiment on an existing Env.
func (e *Env) Fig3b() ([]*Table, error) {
	algos, err := e.perEngine(ierKNN)
	if err != nil {
		return nil, err
	}
	return []*Table{e.runSweep("fig3b", "IER-kNN by g_phi engine, varying density d",
		"d", "avg seconds per query (max-FANN_R)", densitySweep(), algos)}, nil
}

// Fig4a — all FANN_R algorithms, varying d.
func Fig4a(cfg Config) ([]*Table, error) {
	e, err := NewEnv(cfg)
	if err != nil {
		return nil, err
	}
	return e.Fig4a()
}

// Fig4a runs the experiment on an existing Env.
func (e *Env) Fig4a() ([]*Table, error) {
	algos, err := e.mainAlgos()
	if err != nil {
		return nil, err
	}
	return []*Table{e.runSweep("fig4a", "all algorithms, varying density d",
		"d", "avg seconds per query", densitySweep(), algos)}, nil
}

// Fig4b — index-free Baseline (GD with INE) vs R-List (INE), varying d.
func Fig4b(cfg Config) ([]*Table, error) {
	e, err := NewEnv(cfg)
	if err != nil {
		return nil, err
	}
	return e.Fig4b()
}

// Fig4b runs the experiment on an existing Env.
func (e *Env) Fig4b() ([]*Table, error) {
	algos, err := e.baselineAlgos()
	if err != nil {
		return nil, err
	}
	return []*Table{e.runSweep("fig4b", "index-free Baseline vs R-List, varying density d",
		"d", "avg seconds per query (max-FANN_R, g_phi = INE)", densitySweep(), algos)}, nil
}

// Fig5a / Fig5b — varying the coverage ratio A of Q.
func Fig5(cfg Config) ([]*Table, error) {
	e, err := NewEnv(cfg)
	if err != nil {
		return nil, err
	}
	return e.Fig5()
}

// Fig5 runs both panels on an existing Env.
func (e *Env) Fig5() ([]*Table, error) {
	ier, err := e.perEngine(ierKNN)
	if err != nil {
		return nil, err
	}
	main, err := e.mainAlgos()
	if err != nil {
		return nil, err
	}
	return []*Table{
		e.runSweep("fig5a", "IER-kNN by g_phi engine, varying coverage A",
			"A", "avg seconds per query (max-FANN_R)", coverageSweep(), ier),
		e.runSweep("fig5b", "all algorithms, varying coverage A",
			"A", "avg seconds per query", coverageSweep(), main),
	}, nil
}

// Fig6 — varying the query set size M.
func Fig6(cfg Config) ([]*Table, error) {
	e, err := NewEnv(cfg)
	if err != nil {
		return nil, err
	}
	return e.Fig6()
}

// Fig6 runs both panels on an existing Env.
func (e *Env) Fig6() ([]*Table, error) {
	ier, err := e.perEngine(ierKNN)
	if err != nil {
		return nil, err
	}
	main, err := e.mainAlgos()
	if err != nil {
		return nil, err
	}
	return []*Table{
		e.runSweep("fig6a", "IER-kNN by g_phi engine, varying |Q| = M",
			"M", "avg seconds per query (max-FANN_R)", sizeSweep(), ier),
		e.runSweep("fig6b", "all algorithms, varying |Q| = M",
			"M", "avg seconds per query", sizeSweep(), main),
	}, nil
}

// Fig7 — varying the number of query clusters C.
func Fig7(cfg Config) ([]*Table, error) {
	e, err := NewEnv(cfg)
	if err != nil {
		return nil, err
	}
	return e.Fig7()
}

// Fig7 runs both panels on an existing Env.
func (e *Env) Fig7() ([]*Table, error) {
	ier, err := e.perEngine(ierKNN)
	if err != nil {
		return nil, err
	}
	main, err := e.mainAlgos()
	if err != nil {
		return nil, err
	}
	return []*Table{
		e.runSweep("fig7a", "IER-kNN by g_phi engine, varying clusters C",
			"C", "avg seconds per query (max-FANN_R)", clusterSweep(), ier),
		e.runSweep("fig7b", "all algorithms, varying clusters C",
			"C", "avg seconds per query", clusterSweep(), main),
	}, nil
}

// Fig8 — varying the flexibility φ.
func Fig8(cfg Config) ([]*Table, error) {
	e, err := NewEnv(cfg)
	if err != nil {
		return nil, err
	}
	return e.Fig8()
}

// Fig8 runs both panels on an existing Env.
func (e *Env) Fig8() ([]*Table, error) {
	ier, err := e.perEngine(ierKNN)
	if err != nil {
		return nil, err
	}
	main, err := e.mainAlgos()
	if err != nil {
		return nil, err
	}
	return []*Table{
		e.runSweep("fig8a", "IER-kNN by g_phi engine, varying flexibility phi",
			"phi", "avg seconds per query (max-FANN_R)", phiSweep(), ier),
		e.runSweep("fig8b", "all algorithms, varying flexibility phi",
			"phi", "avg seconds per query", phiSweep(), main),
	}, nil
}

// Fig10 — k-FANN_R efficiency, varying k.
func Fig10(cfg Config) ([]*Table, error) {
	e, err := NewEnv(cfg)
	if err != nil {
		return nil, err
	}
	return e.Fig10()
}

// Fig10 runs the experiment on an existing Env.
func (e *Env) Fig10() ([]*Table, error) {
	algos, err := e.mainAlgos()
	if err != nil {
		return nil, err
	}
	// The paper's four exact adaptations: APX-sum's ranks past 1 are
	// heuristic, and it answers sum only.
	algos = slices.DeleteFunc(algos, func(a algoSpec) bool { return a.agg != core.Max })
	return []*Table{e.runSweep("fig10", "k-FANN_R efficiency, varying k",
		"k", "avg seconds per query (max aggregate)", kSweep(), algos)}, nil
}

// TableV — Exact-max running time under every g_φ engine, varying d. The
// paper's point: the engine choice barely matters because Exact-max calls
// g_φ exactly once.
func TableV(cfg Config) ([]*Table, error) {
	e, err := NewEnv(cfg)
	if err != nil {
		return nil, err
	}
	return e.TableV()
}

// TableV runs the experiment on an existing Env.
func (e *Env) TableV() ([]*Table, error) {
	algos, err := e.perEngine(exactMax)
	if err != nil {
		return nil, err
	}
	return []*Table{e.runSweep("table5", "Exact-max with different g_phi engines, varying d",
		"d", "avg seconds per query", densitySweep(), algos)}, nil
}

// AppendixC — sum-FANN_R vs max-FANN_R running time for the universal
// algorithms (the paper's justification for plotting only max).
func AppendixC(cfg Config) ([]*Table, error) {
	e, err := NewEnv(cfg)
	if err != nil {
		return nil, err
	}
	return e.AppendixC()
}

// AppendixC runs the experiment on an existing Env.
func (e *Env) AppendixC() ([]*Table, error) {
	algos, err := e.sumMaxAlgos()
	if err != nil {
		return nil, err
	}
	return []*Table{e.runSweep("appendixC", "sum vs max running time parity, varying d",
		"d", "avg seconds per query", densitySweep(), algos)}, nil
}
