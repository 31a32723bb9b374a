package fannr

// One testing.B sub-benchmark per experiment of the paper's evaluation
// (§VI), running internal/exp's registry at a reduced scale so the
// whole suite stays laptop-sized, plus per-algorithm and per-engine
// micro-benchmarks at the paper's default parameters (d=0.001, A=10%,
// M=128, C=1, φ=0.5).
//
// For full-size runs use the fannr-bench CLI, which exposes scale, query
// count and timeout flags.

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"fannr/internal/core"
	"fannr/internal/difftest"
	"fannr/internal/exp"
	"fannr/internal/graph"
	"fannr/internal/phl"
	"fannr/internal/sp"
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

// BenchmarkExperiment runs every experiment of the paper's evaluation,
// one sub-benchmark per registry id, on the shared Env (Fig. 9 builds its
// own graphs at Scale/8 and reads only the Env's config).
func BenchmarkExperiment(b *testing.B) {
	for _, id := range exp.ExperimentIDs() {
		b.Run(id, func(b *testing.B) {
			e := sharedEnv(b)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if tables, err := e.Run(id); err != nil || len(tables) == 0 {
					b.Fatalf("%d tables, error %v", len(tables), err)
				}
			}
		})
	}
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

// denseQuery is algo_mix's dense shape — d = 0.01, M = 256 — where GD
// evaluates g_φ for ~170 data points against one Q.
func denseQuery(b *testing.B) benchQuery {
	b.Helper()
	e := sharedEnv(b)
	p := workload.DefaultParams()
	gen := NewWorkloadGenerator(e.G, 99)
	return benchQuery{q: core.Query{P: gen.UniformP(0.01), Q: gen.UniformQ(p.A, 256), Phi: p.Phi, Agg: core.Max}}
}

func benchAlgo(b *testing.B, engine string, run func(e *exp.Env, gp core.GPhi, bq benchQuery) error) {
	benchAlgoOn(b, engine, defaultQuery(b), run)
}

// benchAlgoOn times run over one engine and a Scratch of the benchmark's
// own, which keeps R-List's and Exact-max's lanes warm from one op to the
// next as the engine pool's Scratch does from one request to the next.
func benchAlgoOn(b *testing.B, engine string, bq benchQuery, run func(e *exp.Env, gp core.GPhi, bq benchQuery) error) {
	e := sharedEnv(b)
	gp, err := e.Engine(engine)
	if err != nil {
		b.Fatal(err)
	}
	bq.q.Scratch = core.NewScratch()
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
		_, err := core.GD(e.G, gp, bq.q, 1)
		return err
	})
}

// GD over PHL on the dense shape — algo_mix's gd-phl-max-dense class:
// one bind of Q, then every data point resolved through it.
func BenchmarkAlgoGD_PHL_Dense(b *testing.B) {
	benchAlgoOn(b, "PHL", denseQuery(b), func(e *exp.Env, gp core.GPhi, bq benchQuery) error {
		_, err := core.GD(e.G, gp, bq.q, 1)
		return err
	})
}

// GD over the GTree engine — algo_mix's gd-gtree-max class at the paper's
// defaults: one occurrence-list kNN per data point.
func BenchmarkAlgoGD_GTree(b *testing.B) {
	benchAlgo(b, "GTree", func(e *exp.Env, gp core.GPhi, bq benchQuery) error {
		_, err := core.GD(e.G, gp, bq.q, 1)
		return err
	})
}

func BenchmarkAlgoRList_PHL(b *testing.B) {
	benchAlgo(b, "PHL", func(e *exp.Env, gp core.GPhi, bq benchQuery) error {
		_, err := core.RList(e.G, gp, bq.q, 1)
		return err
	})
}

func BenchmarkAlgoIERKNN_PHL(b *testing.B) {
	benchAlgo(b, "PHL", func(e *exp.Env, gp core.GPhi, bq benchQuery) error {
		_, err := core.IERKNN(e.G, bq.rtP, gp, bq.q, 1)
		return err
	})
}

func BenchmarkAlgoExactMax_INE(b *testing.B) {
	benchAlgo(b, "INE", func(e *exp.Env, gp core.GPhi, bq benchQuery) error {
		_, err := core.ExactMax(e.G, gp, bq.q, 1)
		return err
	})
}

func BenchmarkAlgoAPXSum_INE(b *testing.B) {
	benchAlgo(b, "INE", func(e *exp.Env, gp core.GPhi, bq benchQuery) error {
		q := bq.q
		q.Agg = core.Sum
		_, err := core.APXSum(e.G, gp, q, 1)
		return err
	})
}

// APX-sum over PHL on the dense shape — algo_mix's apxsum-phl-sum class:
// |Q| nearest-data-point expansions, then GD over the candidates.
func BenchmarkAlgoAPXSum_PHL(b *testing.B) {
	bq := denseQuery(b)
	bq.q.Agg = core.Sum
	benchAlgoOn(b, "PHL", bq, func(e *exp.Env, gp core.GPhi, bq benchQuery) error {
		_, err := core.APXSum(e.G, gp, bq.q, 1)
		return err
	})
}

func BenchmarkAlgoKExactMax10_INE(b *testing.B) {
	benchAlgo(b, "INE", func(e *exp.Env, gp core.GPhi, bq benchQuery) error {
		_, err := core.ExactMax(e.G, gp, bq.q, 10)
		return err
	})
}

// Per-engine g_φ micro-benchmarks: one flexible aggregate evaluation.

func benchGPhi(b *testing.B, engine string) { benchGPhiRebind(b, engine, false) }

// benchGPhiRebind times one g_φ evaluation; with rebind the engine is
// reset once per pass over P, as a request resets it, so every |P|-th
// evaluation carries whatever the engine does to bind Q.
func benchGPhiRebind(b *testing.B, engine string, rebind bool) {
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
		j := i % len(bq.q.P)
		if rebind && j == 0 {
			gp.Reset(bq.q.Q)
		}
		gp.Dist(bq.q.P[j], k, core.Max)
	}
}

// BenchmarkGPhiPHLBound is BenchmarkGPhiPHL as a request pays for it: the
// bind of Q on the first evaluation after each Reset is in the mean.
func BenchmarkGPhiPHLBound(b *testing.B) { benchGPhiRebind(b, "PHL", true) }

// BenchmarkGPhiIERPHLBound is the same for IER-PHL, which over phl.Index
// is the same body under the other name.
func BenchmarkGPhiIERPHLBound(b *testing.B) { benchGPhiRebind(b, "IER-PHL", true) }

func BenchmarkGPhiINE(b *testing.B)      { benchGPhi(b, "INE") }
func BenchmarkGPhiAStar(b *testing.B)    { benchGPhi(b, "A*") }
func BenchmarkGPhiPHL(b *testing.B)      { benchGPhi(b, "PHL") }
func BenchmarkGPhiGTree(b *testing.B)    { benchGPhi(b, "GTree") }
func BenchmarkGPhiIERAStar(b *testing.B) { benchGPhi(b, "IER-A*") }
func BenchmarkGPhiIERPHL(b *testing.B)   { benchGPhi(b, "IER-PHL") }
func BenchmarkGPhiIERGTree(b *testing.B) { benchGPhi(b, "IER-GTree") }

// restrictedPHL is a PHL batcher with its target binding hidden, which
// keeps NewIERGPhi on the Euclidean-restriction path.
type restrictedPHL struct{ b *phl.Batcher }

func (r restrictedPHL) Dist(u, v graph.NodeID) float64 { return r.b.Dist(u, v) }

func (r restrictedPHL) DistBatch(u graph.NodeID, targets []graph.NodeID, out []float64) {
	r.b.DistBatch(u, targets, out)
}

// BenchmarkIERPHLRegimes sweeps core.Dispatch("ier", IER-PHL, k = 1) over
// algo_mix's grid — d × M × φ at A = 10 % — with Q changing on every
// request, so each one pays its bind (or its R-tree over Q). The bound
// arm is what IER-PHL runs; the restrict arm is the Euclidean restriction
// it ran before, over the same index. evals/op is the g_φ evaluations a
// request makes: at a handful per request the bind is most of the bound
// arm's cost, and binding M = 256 labels to read ⌈0.1·M⌉ of them is the
// one corner where restriction is not behind.
func BenchmarkIERPHLRegimes(b *testing.B) {
	e := sharedEnv(b)
	arms := []struct {
		name   string
		oracle func() core.Oracle
	}{
		{"bound", func() core.Oracle { return e.PHL }},
		{"restrict", func() core.Oracle { return restrictedPHL{e.PHL.NewBatcher()} }},
	}
	for _, d := range []float64{0.001, 0.01} {
		for _, m := range []int{64, 256} {
			for _, phi := range []float64{0.1, 0.5, 1} {
				gen := NewWorkloadGenerator(e.G, 7)
				qs := make([]core.Query, 8)
				for i := range qs {
					qs[i] = core.Query{
						P: gen.UniformP(d), Q: gen.UniformQ(0.10, m), Phi: phi, Agg: core.Max,
						Scratch: core.NewScratch(), Stats: &core.Stats{},
					}
				}
				for _, arm := range arms {
					b.Run(fmt.Sprintf("d=%g/M=%d/phi=%g/%s", d, m, phi, arm.name), func(b *testing.B) {
						gp, err := core.NewIERGPhi("IER-PHL", e.G, arm.oracle())
						if err != nil {
							b.Fatal(err)
						}
						for _, q := range qs {
							*q.Stats = core.Stats{}
						}
						b.ReportAllocs()
						b.ResetTimer()
						for i := 0; i < b.N; i++ {
							if _, err := core.Dispatch(e.G, "ier", gp, qs[i%len(qs)], 1); err != nil {
								b.Fatal(err)
							}
						}
						evals := int64(0)
						for _, q := range qs {
							evals += q.Stats.GPhiEvals
						}
						b.ReportMetric(float64(evals)/float64(b.N), "evals/op")
					})
				}
			}
		}
	}
}

// BenchmarkExpanderLanes is what R-List and Exact-max pay for their
// switchable expansion, without the search around it: 64 lanes (Q at the
// default A = 10 %) over d = 0.01, each stepped (Start, then Step) until
// its 8th member of P settles. The table arm re-arms one pooled set of
// lanes per op, as a Scratch does; the map arm is the map-backed lane
// this replaced (difftest.MapExpander), which could only be minted per
// request. Both settle the same nodes.
func BenchmarkExpanderLanes(b *testing.B) {
	e := sharedEnv(b)
	gen := NewWorkloadGenerator(e.G, 99)
	Q := gen.UniformQ(workload.DefaultParams().A, 64)
	pSet := graph.NewNodeSet(e.G.NumNodes())
	pSet.AddAll(gen.UniformP(0.01))
	const reports = 8
	// drain steps a lane until its 8th member of P, or its end.
	drain := func(step func() (graph.NodeID, float64, bool)) {
		for r := 0; r < reports; {
			v, _, ok := step()
			if !ok {
				return
			}
			if pSet.Contains(v) {
				r++
			}
		}
	}
	b.Run("table", func(b *testing.B) {
		lanes := make([]sp.Expander, len(Q))
		pass := func() {
			for j := range lanes {
				lanes[j].Reset(e.G)
				lanes[j].Start(Q[j])
				drain(lanes[j].Step)
			}
		}
		pass() // grows the tables
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pass()
		}
	})
	b.Run("map", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, src := range Q {
				drain(difftest.NewMapExpander(e.G, src).Step)
			}
		}
	})
}
