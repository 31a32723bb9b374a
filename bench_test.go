package fannr

// One testing.B benchmark per table and figure of the paper's evaluation
// (§VI), wrapping the drivers in internal/exp at a reduced scale so the
// whole suite stays laptop-sized, plus per-algorithm and per-engine
// micro-benchmarks at the paper's default parameters (d=0.001, A=10%,
// M=128, C=1, φ=0.5).
//
// For full-size runs use the fannr-bench CLI, which exposes scale, query
// count and timeout flags.

import (
	"sync"
	"testing"
	"time"

	"fannr/internal/core"
	"fannr/internal/exp"
	"fannr/internal/workload"
)

func benchConfig() exp.Config {
	return exp.Config{
		Dataset: "NW",
		Scale:   1.0 / 64, // ~17k nodes
		Queries: 2,
		Seed:    1,
		Timeout: 3 * time.Second,
	}
}

var (
	benchEnvOnce sync.Once
	benchEnv     *exp.Env
	benchEnvErr  error
)

func sharedEnv(b *testing.B) *exp.Env {
	b.Helper()
	benchEnvOnce.Do(func() {
		benchEnv, benchEnvErr = exp.NewEnv(benchConfig())
	})
	if benchEnvErr != nil {
		b.Fatal(benchEnvErr)
	}
	return benchEnv
}

func runFigure(b *testing.B, run func(e *exp.Env) ([]*exp.Table, error)) {
	e := sharedEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tables, err := run(e)
		if err != nil {
			b.Fatal(err)
		}
		if len(tables) == 0 {
			b.Fatal("no tables produced")
		}
	}
}

// Figure and table benchmarks — one per experiment in the paper.

func BenchmarkFig3a(b *testing.B) {
	runFigure(b, func(e *exp.Env) ([]*exp.Table, error) { return e.Fig3a() })
}
func BenchmarkFig3b(b *testing.B) {
	runFigure(b, func(e *exp.Env) ([]*exp.Table, error) { return e.Fig3b() })
}
func BenchmarkFig4a(b *testing.B) {
	runFigure(b, func(e *exp.Env) ([]*exp.Table, error) { return e.Fig4a() })
}
func BenchmarkFig4b(b *testing.B) {
	runFigure(b, func(e *exp.Env) ([]*exp.Table, error) { return e.Fig4b() })
}
func BenchmarkFig5(b *testing.B) {
	runFigure(b, func(e *exp.Env) ([]*exp.Table, error) { return e.Fig5() })
}
func BenchmarkFig6(b *testing.B) {
	runFigure(b, func(e *exp.Env) ([]*exp.Table, error) { return e.Fig6() })
}
func BenchmarkFig7(b *testing.B) {
	runFigure(b, func(e *exp.Env) ([]*exp.Table, error) { return e.Fig7() })
}
func BenchmarkFig8(b *testing.B) {
	runFigure(b, func(e *exp.Env) ([]*exp.Table, error) { return e.Fig8() })
}

func BenchmarkFig9(b *testing.B) {
	cfg := benchConfig()
	cfg.Scale = 1.0 / 64 // Fig9 loads all seven datasets at Scale/8
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig9(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10(b *testing.B) {
	runFigure(b, func(e *exp.Env) ([]*exp.Table, error) { return e.Fig10() })
}
func BenchmarkFig11(b *testing.B) {
	runFigure(b, func(e *exp.Env) ([]*exp.Table, error) { return e.Fig11() })
}
func BenchmarkFig12(b *testing.B) {
	runFigure(b, func(e *exp.Env) ([]*exp.Table, error) { return e.Fig12() })
}
func BenchmarkTableV(b *testing.B) {
	runFigure(b, func(e *exp.Env) ([]*exp.Table, error) { return e.TableV() })
}
func BenchmarkAppendixA(b *testing.B) {
	runFigure(b, func(e *exp.Env) ([]*exp.Table, error) { return e.AppendixA() })
}
func BenchmarkAppendixB(b *testing.B) {
	runFigure(b, func(e *exp.Env) ([]*exp.Table, error) { return e.AppendixB() })
}
func BenchmarkAppendixC(b *testing.B) {
	runFigure(b, func(e *exp.Env) ([]*exp.Table, error) { return e.AppendixC() })
}

// Beyond-paper experiments.

func BenchmarkAblationBound(b *testing.B) {
	runFigure(b, func(e *exp.Env) ([]*exp.Table, error) { return e.AblationBound() })
}

func BenchmarkAblationRefine(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := exp.AblationRefine(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtensionEngines(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := exp.ExtensionEngines(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDiagnostics(b *testing.B) {
	runFigure(b, func(e *exp.Env) ([]*exp.Table, error) { return e.Diagnostics() })
}

// Per-algorithm micro-benchmarks at the paper's default parameters.

type benchQuery struct {
	q   core.Query
	rtP *RTree
}

var (
	benchQOnce sync.Once
	benchQ     benchQuery
)

func defaultQuery(b *testing.B) benchQuery {
	b.Helper()
	e := sharedEnv(b)
	benchQOnce.Do(func() {
		p := workload.DefaultParams()
		gen := NewWorkloadGenerator(e.G, 99)
		P := gen.UniformP(p.D)
		Q := gen.UniformQ(p.A, p.M)
		benchQ = benchQuery{
			q:   core.Query{P: P, Q: Q, Phi: p.Phi, Agg: core.Max},
			rtP: core.BuildPTree(e.G, P),
		}
	})
	return benchQ
}

func benchAlgo(b *testing.B, engine string, run func(e *exp.Env, gp core.GPhi, bq benchQuery) error) {
	e := sharedEnv(b)
	gp, err := e.Engine(engine)
	if err != nil {
		b.Fatal(err)
	}
	bq := defaultQuery(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := run(e, gp, bq); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAlgoGD_PHL(b *testing.B) {
	benchAlgo(b, "PHL", func(e *exp.Env, gp core.GPhi, bq benchQuery) error {
		_, err := core.GD(e.G, gp, bq.q)
		return err
	})
}

// GD over the GTree engine — algo_mix's gd-gtree-max class at the paper's
// defaults: one occurrence-list kNN per data point.
func BenchmarkAlgoGD_GTree(b *testing.B) {
	benchAlgo(b, "GTree", func(e *exp.Env, gp core.GPhi, bq benchQuery) error {
		_, err := core.GD(e.G, gp, bq.q)
		return err
	})
}

func BenchmarkAlgoRList_PHL(b *testing.B) {
	benchAlgo(b, "PHL", func(e *exp.Env, gp core.GPhi, bq benchQuery) error {
		_, err := core.RList(e.G, gp, bq.q)
		return err
	})
}

func BenchmarkAlgoIERKNN_PHL(b *testing.B) {
	benchAlgo(b, "PHL", func(e *exp.Env, gp core.GPhi, bq benchQuery) error {
		_, err := core.IERKNN(e.G, bq.rtP, gp, bq.q, core.IEROptions{})
		return err
	})
}

func BenchmarkAlgoIERKNNCheapBound_PHL(b *testing.B) {
	benchAlgo(b, "PHL", func(e *exp.Env, gp core.GPhi, bq benchQuery) error {
		_, err := core.IERKNN(e.G, bq.rtP, gp, bq.q, core.IEROptions{CheapBound: true})
		return err
	})
}

func BenchmarkAlgoExactMax_INE(b *testing.B) {
	benchAlgo(b, "INE", func(e *exp.Env, gp core.GPhi, bq benchQuery) error {
		_, err := core.ExactMax(e.G, gp, bq.q)
		return err
	})
}

func BenchmarkAlgoAPXSum_INE(b *testing.B) {
	benchAlgo(b, "INE", func(e *exp.Env, gp core.GPhi, bq benchQuery) error {
		q := bq.q
		q.Agg = core.Sum
		_, err := core.APXSum(e.G, gp, q)
		return err
	})
}

func BenchmarkAlgoKExactMax10_INE(b *testing.B) {
	benchAlgo(b, "INE", func(e *exp.Env, gp core.GPhi, bq benchQuery) error {
		_, err := core.KExactMax(e.G, gp, bq.q, 10)
		return err
	})
}

// Per-engine g_φ micro-benchmarks: one flexible aggregate evaluation.

func benchGPhi(b *testing.B, engine string) {
	e := sharedEnv(b)
	gp, err := e.Engine(engine)
	if err != nil {
		b.Fatal(err)
	}
	bq := defaultQuery(b)
	gp.Reset(bq.q.Q)
	k := bq.q.K()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := bq.q.P[i%len(bq.q.P)]
		gp.Dist(p, k, core.Max)
	}
}

func BenchmarkGPhiINE(b *testing.B)      { benchGPhi(b, "INE") }
func BenchmarkGPhiAStar(b *testing.B)    { benchGPhi(b, "A*") }
func BenchmarkGPhiPHL(b *testing.B)      { benchGPhi(b, "PHL") }
func BenchmarkGPhiGTree(b *testing.B)    { benchGPhi(b, "GTree") }
func BenchmarkGPhiIERAStar(b *testing.B) { benchGPhi(b, "IER-A*") }
func BenchmarkGPhiIERPHL(b *testing.B)   { benchGPhi(b, "IER-PHL") }
func BenchmarkGPhiIERGTree(b *testing.B) { benchGPhi(b, "IER-GTree") }
