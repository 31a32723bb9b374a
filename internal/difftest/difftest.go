// Package difftest is the cross-engine differential harness: seeded
// random road networks and random queries are run through every
// registered g_φ engine × algorithm × aggregate × φ combination and the
// answers are compared against the independent brute-force reference.
// Hand-written unit tests pin behaviors someone thought of; the harness
// exists to flush out the ones nobody did — the M-tree k-FANN paper
// (arXiv:2106.05620) validates exactness the same way, by exhaustive
// cross-checking against brute force.
//
// Beyond answer equality the harness asserts metamorphic invariants that
// hold for every FANN_R instance:
//
//   - d*(φ) is nondecreasing in φ (growing the mandatory subset can only
//     hurt the optimum),
//   - d*_max ≤ d*_sum at equal φ (max of k distances ≤ their sum),
//   - k-FANN_R answer lists are sorted by distance and prefix-consistent
//     (the k'-answer distances are a prefix of the k-answer distances for
//     k' < k).
//
// Everything is deterministic per seed, so a disagreement reported in CI
// reproduces locally from the case's seed alone.
package difftest

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"

	"fannr/internal/core"
	"fannr/internal/graph"
	"fannr/internal/gtree"
	"fannr/internal/phl"
)

// Env is one road network with the full engine suite built over it.
type Env struct {
	G       *graph.Graph
	Engines []core.GPhi

	// Tree is the G-tree the suite was assembled with; the sharded
	// harness reuses it to cut partition plans without rebuilding.
	Tree *gtree.Tree

	// factories let the sharded harness stamp out fresh engine instances
	// per shard host over the indexes already built here (indexes are
	// shared read-only; queriers are per-instance), in suite order.
	factories []core.EngineFactory
}

// suite names the engines every case runs through, in the order Engines
// holds them: the case seed picks the top-k and sharded engine by
// position, so the order fixes which engine a corpus seed exercises.
var suite = []string{"INE", "A*", "PHL", "GTree-SPSP", "GTree", "IER-A*", "IER-PHL"}

// NewEnv generates a connected random road network of roughly the given
// node count and builds every engine of the paper's Table I over it.
func NewEnv(nodes int, seed int64) (*Env, error) {
	g, err := graph.Generate(graph.GenConfig{Nodes: nodes, Seed: seed, Name: fmt.Sprintf("diff-%d", seed)})
	if err != nil {
		return nil, err
	}
	labels, err := phl.Build(g, phl.Options{})
	if err != nil {
		return nil, err
	}
	tr, err := gtree.Build(g, gtree.Options{MaxLeafSize: 64})
	if err != nil {
		return nil, err
	}
	return assembleEnv(g, labels, tr)
}

// assembleEnv builds the engine suite shared by NewEnv and NewEnvLoaded
// from a graph and its (built or loaded) indexes, through the catalogue.
func assembleEnv(g *graph.Graph, labels *phl.Index, tr *gtree.Tree) (*Env, error) {
	ix := core.Indexes{PHL: labels, GTree: tr}
	env := &Env{G: g, Tree: tr}
	for _, name := range suite {
		f, err := core.Engine(name, g, ix)
		if err != nil {
			return nil, err
		}
		env.Engines = append(env.Engines, f())
		env.factories = append(env.factories, f)
	}
	return env, nil
}

// NewEnvLoaded is NewEnv except the hub-label and G-tree indexes take a
// round trip through the on-disk v4 format first: they are saved under
// dir and reloaded through phl.Load / gtree.Load (zero-copy mmapped when
// mmap is true) before the engine suite is assembled. Together with
// NewEnv it powers the mmap-vs-heap differential gate, and under mmap it
// doubles as the immutability audit: the index slabs live on read-only
// pages, so any engine writing into them segfaults instead of passing.
func NewEnvLoaded(nodes int, seed int64, dir string, mmap bool) (*Env, error) {
	g, err := graph.Generate(graph.GenConfig{Nodes: nodes, Seed: seed, Name: fmt.Sprintf("diff-%d", seed)})
	if err != nil {
		return nil, err
	}
	built, err := phl.Build(g, phl.Options{})
	if err != nil {
		return nil, err
	}
	labels, err := roundTrip(filepath.Join(dir, "diff.phl"), built.Save,
		func(path string) (*phl.Index, error) { return phl.Load(path, phl.LoadOptions{Mmap: mmap}) })
	if err != nil {
		return nil, err
	}
	builtTree, err := gtree.Build(g, gtree.Options{MaxLeafSize: 64})
	if err != nil {
		return nil, err
	}
	tr, err := roundTrip(filepath.Join(dir, "diff.gtree"), builtTree.Save,
		func(path string) (*gtree.Tree, error) { return gtree.Load(path, g, gtree.LoadOptions{Mmap: mmap}) })
	if err != nil {
		return nil, err
	}
	if mmap && (!labels.Mapped() || !tr.Mapped()) {
		return nil, fmt.Errorf("difftest: v4 round trip did not map (phl=%v gtree=%v)", labels.Mapped(), tr.Mapped())
	}
	return assembleEnv(g, labels, tr)
}

// roundTrip saves an index to path and loads it back.
func roundTrip[T any](path string, save func(io.Writer) error, load func(string) (T, error)) (T, error) {
	var zero T
	f, err := os.Create(path)
	if err != nil {
		return zero, err
	}
	if err := save(f); err != nil {
		f.Close()
		return zero, err
	}
	if err := f.Close(); err != nil {
		return zero, err
	}
	return load(path)
}

// RunCaseIdentical runs one case's algorithms (caseAlgos) at k = 1
// through each engine of both environments and requires bit-identical
// distances and equal answer points — the contract that a mmap-loaded
// index is indistinguishable from its heap twin, down to floating-point
// rounding. The environments must hold the same engine suite over the
// same graph.
func (env *Env) RunCaseIdentical(other *Env, c Case) error {
	if len(env.Engines) != len(other.Engines) {
		return fmt.Errorf("%v: engine suites differ: %d vs %d", c, len(env.Engines), len(other.Engines))
	}
	q := c.query()
	for i, a := range env.Engines {
		b := other.Engines[i]
		if a.Name() != b.Name() {
			return fmt.Errorf("%v: engine %d named %q vs %q", c, i, a.Name(), b.Name())
		}
		for _, algo := range caseAlgos(env.G, c.Agg) {
			ansA, errA := core.Dispatch(env.G, algo, a, q, 1)
			ansB, errB := core.Dispatch(other.G, algo, b, q, 1)
			label := algo + "/" + a.Name()
			if (errA == nil) != (errB == nil) {
				return fmt.Errorf("%v: %s: errors differ: %v vs %v", c, label, errA, errB)
			}
			if errA != nil {
				if !errors.Is(errB, core.ErrNoResult) || !errors.Is(errA, core.ErrNoResult) {
					if errA.Error() != errB.Error() {
						return fmt.Errorf("%v: %s: errors differ: %v vs %v", c, label, errA, errB)
					}
				}
				continue
			}
			if math.Float64bits(ansA[0].Dist) != math.Float64bits(ansB[0].Dist) {
				return fmt.Errorf("%v: %s: d* %v vs %v (not bit-identical)", c, label, ansA[0].Dist, ansB[0].Dist)
			}
			if ansA[0].P != ansB[0].P {
				return fmt.Errorf("%v: %s: answer p %d vs %d", c, label, ansA[0].P, ansB[0].P)
			}
		}
	}
	return nil
}

// Case is one differential test case: a full FANN_R instance plus the
// top-k answer count. Seed identifies the case for reproduction.
type Case struct {
	Seed int64
	P    []graph.NodeID
	Q    []graph.NodeID
	Phi  float64
	Agg  core.Aggregate
	KAns int
}

func (c Case) String() string {
	return fmt.Sprintf("case{seed=%d |P|=%d |Q|=%d φ=%.2f agg=%s k=%d}",
		c.Seed, len(c.P), len(c.Q), c.Phi, c.Agg, c.KAns)
}

// phiGrid are the flexibility values cases draw from — the paper's §VI
// sweep values plus the φ→0 clamp edge.
var phiGrid = []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0}

// GenCase derives a random case from a seed. Roughly a quarter of cases
// deliberately contain duplicate entries in P and/or Q — duplicates must
// not change any answer (core.Query.Validate canonicalizes them), and the
// harness is exactly the place that catches an engine disagreeing on
// multiplicity semantics.
func GenCase(seed int64, g *graph.Graph) Case {
	rng := rand.New(rand.NewSource(seed))
	n := g.NumNodes()
	pick := func(count int) []graph.NodeID {
		seen := map[graph.NodeID]bool{}
		out := make([]graph.NodeID, 0, count)
		for len(out) < count {
			v := graph.NodeID(rng.Intn(n))
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
		return out
	}
	c := Case{
		Seed: seed,
		P:    pick(4 + rng.Intn(16)),
		Q:    pick(2 + rng.Intn(10)),
		Phi:  phiGrid[rng.Intn(len(phiGrid))],
		Agg:  core.Aggregate(rng.Intn(2)),
		KAns: 1 + rng.Intn(3),
	}
	if rng.Intn(4) == 0 { // inject duplicates
		c.Q = append(c.Q, c.Q[rng.Intn(len(c.Q))])
		if rng.Intn(2) == 0 {
			c.P = append(c.P, c.P[rng.Intn(len(c.P))])
		}
	}
	return c
}

// query materializes the core query of a case.
func (c Case) query() core.Query {
	return core.Query{P: c.P, Q: c.Q, Phi: c.Phi, Agg: c.Agg}
}

const tol = 1e-6

func closeTo(a, b float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Max(math.Abs(a), math.Abs(b)))
}

// RunCase runs one case through every engine × applicable algorithm
// (caseAlgos) through core.Dispatch, the path the tiers serve, and
// compares against the brute-force reference; it returns an error
// describing the first disagreement. Every engine answers at k = 1; one,
// rotating with the case seed, answers at every k up to c.KAns, and each
// exact algorithm's top-(k−1) must be a prefix of its top-k — across
// hundreds of cases every engine sees every k. A nil error means every
// combination agreed and every metamorphic invariant held.
func (env *Env) RunCase(c Case) error {
	q := c.query()
	kb, err := core.KBrute(env.G, q, c.KAns)
	if err != nil && !errors.Is(err, core.ErrNoResult) {
		return fmt.Errorf("%v: KBrute: %w", c, err)
	}
	topK := rotate(c.Seed, len(env.Engines))
	for e, gp := range env.Engines {
		kMax := 1
		if e == topK {
			kMax = c.KAns
		}
		for _, algo := range caseAlgos(env.G, c.Agg) {
			var shorter []core.Answer
			for k := 1; k <= kMax; k++ {
				label := fmt.Sprintf("%s/%s k=%d", algo, gp.Name(), k)
				got, err := core.Dispatch(env.G, algo, gp, q, k)
				if err := env.check(c, q, label, algo, k, kb, got, err); err != nil {
					return err
				}
				if algo == "apxsum" { // ranks past 1 are heuristic
					continue
				}
				for i := range shorter {
					if !closeTo(shorter[i].Dist, got[i].Dist) {
						return fmt.Errorf("%v: %s: top-%d is no prefix, rank %d: %v vs %v", c, label, k-1, i, shorter[i].Dist, got[i].Dist)
					}
				}
				shorter = got
			}
		}
	}
	return env.checkMetamorphic(c, q)
}

// caseAlgos lists the wire algorithms a case can run through.
func caseAlgos(g *graph.Graph, agg core.Aggregate) []string {
	algos := []string{"gd", "rlist"}
	if g.HasCoords() {
		algos = append(algos, "ier")
	}
	if agg == core.Max {
		return append(algos, "exactmax")
	}
	return append(algos, "apxsum")
}

// rotate picks the position of the engine a seed exercises alone.
func rotate(seed int64, n int) int {
	return int((seed%int64(n) + int64(n)) % int64(n))
}

// check holds one algorithm's answers at k to KBrute's list kb (nil when
// brute force finds no answer, which every algorithm must then report
// too, APX-sum aside): min(k, |kb|) answers sorted by distance, each
// equal to brute force's at its rank and passing Verify — or, for
// APX-sum, whose ranks past 1 are heuristic, a first answer within the
// Theorem 1/2 ratio of the optimum.
func (env *Env) check(c Case, q core.Query, label, algo string, k int, kb, got []core.Answer, err error) error {
	switch {
	case kb == nil && (errors.Is(err, core.ErrNoResult) || algo == "apxsum" && err == nil):
		return nil
	case kb == nil:
		return fmt.Errorf("%v: %s: err = %v, brute says ErrNoResult", c, label, err)
	case err != nil:
		return fmt.Errorf("%v: %s: %w", c, label, err)
	}
	for i := 1; i < len(got); i++ {
		if got[i].Dist < got[i-1].Dist-tol {
			return fmt.Errorf("%v: %s: answers not sorted at rank %d", c, label, i)
		}
	}
	if algo == "apxsum" {
		bound := core.APXSumRatioBound(q)
		if len(got) == 0 || got[0].Dist < kb[0].Dist-tol || got[0].Dist > bound*kb[0].Dist+tol {
			return fmt.Errorf("%v: %s: rank-1 %+v outside [d*, %v·d*], d* = %v", c, label, got, bound, kb[0].Dist)
		}
		return nil
	}
	if len(got) != min(k, len(kb)) {
		return fmt.Errorf("%v: %s: %d answers, brute %d", c, label, len(got), min(k, len(kb)))
	}
	for i := range got {
		if !closeTo(got[i].Dist, kb[i].Dist) {
			return fmt.Errorf("%v: %s: rank %d dist %v, brute %v (p=%d vs %d)", c, label, i, got[i].Dist, kb[i].Dist, got[i].P, kb[i].P)
		}
		if err := core.Verify(env.G, q, got[i]); err != nil {
			return fmt.Errorf("%v: %s: rank %d fails Verify: %w", c, label, i, err)
		}
	}
	return nil
}

// checkMetamorphic asserts the cross-query invariants on the brute-force
// reference: φ-monotonicity of d* and max ≤ sum at equal φ.
func (env *Env) checkMetamorphic(c Case, q core.Query) error {
	// max ≤ sum: for every p the max of its k nearest ≤ their sum, so the
	// optima order the same way.
	qMax, qSum := q, q
	qMax.Agg, qSum.Agg = core.Max, core.Sum
	dMax, errMax := core.Brute(env.G, qMax)
	dSum, errSum := core.Brute(env.G, qSum)
	if (errMax == nil) != (errSum == nil) {
		return fmt.Errorf("%v: max/sum reachability disagree: %v vs %v", c, errMax, errSum)
	}
	if errMax == nil && dMax.Dist > dSum.Dist+tol*(1+dSum.Dist) {
		return fmt.Errorf("%v: d*_max = %v > d*_sum = %v", c, dMax.Dist, dSum.Dist)
	}
	// φ-monotonicity: larger mandatory subsets cannot improve the optimum.
	prev := -1.0
	for _, phi := range phiGrid {
		qq := q
		qq.Phi = phi
		ans, err := core.Brute(env.G, qq)
		if errors.Is(err, core.ErrNoResult) {
			// Once some φ is unreachable every larger φ must be too.
			for _, phi2 := range phiGrid {
				if phi2 < phi {
					continue
				}
				qq.Phi = phi2
				if _, err2 := core.Brute(env.G, qq); !errors.Is(err2, core.ErrNoResult) {
					return fmt.Errorf("%v: unreachable at φ=%v but reachable at φ=%v", c, phi, phi2)
				}
			}
			break
		}
		if err != nil {
			return fmt.Errorf("%v: brute at φ=%v: %w", c, phi, err)
		}
		if ans.Dist < prev-tol*(1+prev) {
			return fmt.Errorf("%v: d* decreased from %v to %v as φ grew to %v", c, prev, ans.Dist, phi)
		}
		prev = ans.Dist
	}
	return nil
}
