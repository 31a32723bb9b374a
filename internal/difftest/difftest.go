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
	"fannr/internal/qcache"
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

// RunCaseIdentical runs one case's GD, RList and aggregate-specific
// algorithms through each engine of both environments and requires
// bit-identical distances and equal answer points — the contract that a
// mmap-loaded index is indistinguishable from its heap twin, down to
// floating-point rounding. The environments must hold the same engine
// suite over the same graph.
func (env *Env) RunCaseIdentical(other *Env, c Case) error {
	if len(env.Engines) != len(other.Engines) {
		return fmt.Errorf("%v: engine suites differ: %d vs %d", c, len(env.Engines), len(other.Engines))
	}
	q := c.query()
	type algo struct {
		name string
		fn   func(*graph.Graph, core.GPhi, core.Query) (core.Answer, error)
	}
	algos := []algo{{"GD", core.GD}, {"RList", core.RList}}
	if q.Agg == core.Max {
		algos = append(algos, algo{"ExactMax", core.ExactMax})
	} else {
		algos = append(algos, algo{"APXSum", core.APXSum})
	}
	for i, a := range env.Engines {
		b := other.Engines[i]
		if a.Name() != b.Name() {
			return fmt.Errorf("%v: engine %d named %q vs %q", c, i, a.Name(), b.Name())
		}
		for _, al := range algos {
			ansA, errA := al.fn(env.G, a, q)
			ansB, errB := al.fn(other.G, b, q)
			label := al.name + "/" + a.Name()
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
			if math.Float64bits(ansA.Dist) != math.Float64bits(ansB.Dist) {
				return fmt.Errorf("%v: %s: d* %v vs %v (not bit-identical)", c, label, ansA.Dist, ansB.Dist)
			}
			if ansA.P != ansB.P {
				return fmt.Errorf("%v: %s: answer p %d vs %d", c, label, ansA.P, ansB.P)
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

// RunCase runs one case through every engine × applicable algorithm and
// compares against the brute-force reference; it returns an error
// describing the first disagreement. A nil error means every combination
// agreed and every metamorphic invariant held.
func (env *Env) RunCase(c Case) error {
	q := c.query()
	want, bruteErr := core.Brute(env.G, q)
	noResult := errors.Is(bruteErr, core.ErrNoResult)
	if bruteErr != nil && !noResult {
		return fmt.Errorf("%v: brute: %w", c, bruteErr)
	}

	check := func(label string, ans core.Answer, err error) error {
		if noResult {
			if !errors.Is(err, core.ErrNoResult) {
				return fmt.Errorf("%v: %s: err = %v, brute says ErrNoResult", c, label, err)
			}
			return nil
		}
		if err != nil {
			return fmt.Errorf("%v: %s: %w", c, label, err)
		}
		if !closeTo(ans.Dist, want.Dist) {
			return fmt.Errorf("%v: %s: d* = %v, brute %v (p=%d vs %d)",
				c, label, ans.Dist, want.Dist, ans.P, want.P)
		}
		if err := core.Verify(env.G, q, ans); err != nil {
			return fmt.Errorf("%v: %s: answer fails Verify: %w", c, label, err)
		}
		return nil
	}

	for _, gp := range env.Engines {
		name := gp.Name()
		ans, err := core.GD(env.G, gp, q)
		if err := check("GD/"+name, ans, err); err != nil {
			return err
		}
		ans, err = core.RList(env.G, gp, q)
		if err := check("RList/"+name, ans, err); err != nil {
			return err
		}
		if env.G.HasCoords() {
			ans, err = core.IERKNN(env.G, core.BuildPTree(env.G, q.P), gp, q)
			if err := check("IER/"+name, ans, err); err != nil {
				return err
			}
		}
		if q.Agg == core.Max {
			ans, err = core.ExactMax(env.G, gp, q)
			if err := check("ExactMax/"+name, ans, err); err != nil {
				return err
			}
		} else {
			// APX-sum is approximate: assert the Theorem 1/2 ratio bound
			// instead of equality.
			ans, err = core.APXSum(env.G, gp, q)
			if noResult {
				// APX-sum's candidate reduction can also legitimately fail.
				if err != nil && !errors.Is(err, core.ErrNoResult) {
					return fmt.Errorf("%v: APXSum/%s: %w", c, name, err)
				}
			} else if err != nil {
				return fmt.Errorf("%v: APXSum/%s: %w", c, name, err)
			} else {
				bound := core.APXSumRatioBound(q)
				if ans.Dist < want.Dist-tol || ans.Dist > bound*want.Dist+tol {
					return fmt.Errorf("%v: APXSum/%s: d = %v outside [d*, %v·d*], d* = %v",
						c, name, ans.Dist, bound, want.Dist)
				}
			}
		}
	}
	if err := env.runTopK(c, q); err != nil {
		return err
	}
	return env.checkMetamorphic(c, q)
}

// runTopK cross-checks the k-FANN_R adaptations against KBrute and the
// ordering/prefix invariants. Engines rotate per case seed to bound cost;
// across hundreds of cases every engine sees every algorithm.
func (env *Env) runTopK(c Case, q core.Query) error {
	kb, err := core.KBrute(env.G, q, c.KAns)
	if errors.Is(err, core.ErrNoResult) {
		return nil // single-answer path already cross-checked this
	}
	if err != nil {
		return fmt.Errorf("%v: KBrute: %w", c, err)
	}
	idx := int(c.Seed) % len(env.Engines)
	if idx < 0 {
		idx += len(env.Engines)
	}
	gp := env.Engines[idx]
	name := gp.Name()

	checkList := func(label string, got []core.Answer, err error) error {
		if err != nil {
			return fmt.Errorf("%v: %s: %w", c, label, err)
		}
		if len(got) != len(kb) {
			return fmt.Errorf("%v: %s: %d answers, brute %d", c, label, len(got), len(kb))
		}
		for i := range got {
			if i > 0 && got[i].Dist < got[i-1].Dist-tol {
				return fmt.Errorf("%v: %s: answers not sorted at rank %d", c, label, i)
			}
			if !closeTo(got[i].Dist, kb[i].Dist) {
				return fmt.Errorf("%v: %s: rank %d dist %v, brute %v", c, label, i, got[i].Dist, kb[i].Dist)
			}
		}
		return nil
	}

	got, err := core.KGD(env.G, gp, q, c.KAns)
	if err := checkList("KGD/"+name, got, err); err != nil {
		return err
	}
	// Prefix consistency: asking for one fewer answer returns the same
	// distances minus the tail.
	if c.KAns > 1 {
		shorter, err := core.KGD(env.G, gp, q, c.KAns-1)
		if err != nil {
			return fmt.Errorf("%v: KGD/%s (k-1): %w", c, name, err)
		}
		if len(shorter) != len(got)-1 {
			return fmt.Errorf("%v: KGD/%s: k-1 returned %d answers, want %d", c, name, len(shorter), len(got)-1)
		}
		for i := range shorter {
			if !closeTo(shorter[i].Dist, got[i].Dist) {
				return fmt.Errorf("%v: KGD/%s: prefix broken at rank %d: %v vs %v",
					c, name, i, shorter[i].Dist, got[i].Dist)
			}
		}
	}
	got, err = core.KRList(env.G, gp, q, c.KAns)
	if err := checkList("KRList/"+name, got, err); err != nil {
		return err
	}
	if env.G.HasCoords() {
		got, err = core.KIERKNN(env.G, core.BuildPTree(env.G, q.P), gp, q, c.KAns)
		if err := checkList("KIER/"+name, got, err); err != nil {
			return err
		}
	}
	if q.Agg == core.Max {
		got, err = core.KExactMax(env.G, gp, q, c.KAns)
		if err := checkList("KExactMax/"+name, got, err); err != nil {
			return err
		}
	} else {
		// KAPXSum: rank-1 keeps the 3-approximation bound; deeper ranks
		// are heuristic but must stay sorted.
		got, err = core.KAPXSum(env.G, gp, q, c.KAns)
		if err != nil && !errors.Is(err, core.ErrNoResult) {
			return fmt.Errorf("%v: KAPXSum/%s: %w", c, name, err)
		}
		if err == nil && len(got) > 0 {
			bound := core.APXSumRatioBound(q)
			if got[0].Dist < kb[0].Dist-tol || got[0].Dist > bound*kb[0].Dist+tol {
				return fmt.Errorf("%v: KAPXSum/%s: rank-1 %v outside [d*, %v·d*], d* = %v",
					c, name, got[0].Dist, bound, kb[0].Dist)
			}
			for i := 1; i < len(got); i++ {
				if got[i].Dist < got[i-1].Dist-tol {
					return fmt.Errorf("%v: KAPXSum/%s: answers not sorted at rank %d", c, name, i)
				}
			}
		}
	}
	return nil
}

// cachedSweep is the descending-φ ladder RunCaseCached ends with: every
// k it asks for fits the lists the φ=1 query filled.
var cachedSweep = []float64{1.0, 0.75, 0.5, 0.25, 0.1, 0.01}

// RunCaseCached is the differential gate for the qcache list layer and
// its admission rule. Per engine, on a cache of its own, the case's
// query at φ=1 is answered by GD three times, each through a fresh
// wrapper as the server makes one per request, and the cache's counters
// are pinned after each so that neither a pass-through nor an
// always-fill wrapper can fake agreement:
//
//   - first sight of Q: every evaluation and the winner's subset miss,
//     are computed by the engine directly, and nothing is stored;
//   - second sight: the same evaluations miss and each stores its list;
//     only the subset hits (the winner's list, stored a moment earlier);
//   - third: no miss — every evaluation and the subset are list hits.
//
// Then GD and R-List run a descending-φ sweep whose smaller k are all
// prefixes of those lists — the "Revisitation of g_φ" fold the cache
// relies on — and must not miss once. Every warm answer is compared with
// the bare engine's bit for bit (one fold serves both since PR 12; the
// NeighborSearcher contract is what makes the three states agree), with
// brute force to tolerance, and checked by Verify.
func (env *Env) RunCaseCached(c Case) error {
	algos := []struct {
		name string
		fn   func(*graph.Graph, core.GPhi, core.Query) (core.Answer, error)
	}{
		{"GD", core.GD},
		{"RList", core.RList},
	}
	for _, gp := range env.Engines {
		cache := qcache.New(qcache.Config{MaxEntries: 1 << 14})
		if cache.Wrap(gp) == gp {
			return fmt.Errorf("%v: %s lacks neighbor extraction; cache wrap was a no-op", c, gp.Name())
		}
		// check runs one query bare and through a fresh wrapper. ok is
		// false (and err nil) when brute force finds no answer and both
		// agree.
		check := func(label string, fn func(*graph.Graph, core.GPhi, core.Query) (core.Answer, error), phi float64) (ok bool, err error) {
			q := c.query()
			q.Phi = phi
			want, bruteErr := core.Brute(env.G, q)
			noResult := errors.Is(bruteErr, core.ErrNoResult)
			if bruteErr != nil && !noResult {
				return false, fmt.Errorf("%v: brute at φ=%v: %w", c, phi, bruteErr)
			}
			cold, coldErr := fn(env.G, gp, q)
			warm, warmErr := fn(env.G, cache.Wrap(gp), q)
			if noResult {
				if !errors.Is(warmErr, core.ErrNoResult) || !errors.Is(coldErr, core.ErrNoResult) {
					return false, fmt.Errorf("%v: %s: cold err %v, warm err %v, brute says ErrNoResult", c, label, coldErr, warmErr)
				}
				return false, nil
			}
			if coldErr != nil || warmErr != nil {
				return false, fmt.Errorf("%v: %s: cold err %v, warm err %v", c, label, coldErr, warmErr)
			}
			if warm.P != cold.P || math.Float64bits(warm.Dist) != math.Float64bits(cold.Dist) {
				return false, fmt.Errorf("%v: %s: warm (%d, %v), cold (%d, %v) — not bit-identical", c, label, warm.P, warm.Dist, cold.P, cold.Dist)
			}
			if !closeTo(warm.Dist, want.Dist) {
				return false, fmt.Errorf("%v: %s: warm d* = %v, brute %v (p=%d vs %d)", c, label, warm.Dist, want.Dist, warm.P, want.P)
			}
			if err := core.Verify(env.G, q, warm); err != nil {
				return false, fmt.Errorf("%v: %s: warm answer fails Verify: %w", c, label, err)
			}
			return true, nil
		}

		var lookups int64 // list lookups of the φ=1 GD: one per data point, one for the subset
		prev := cache.Metrics()
		for sight := 1; sight <= 3; sight++ {
			label := fmt.Sprintf("cached/GD/%s sight %d", gp.Name(), sight)
			ok, err := check(label, core.GD, 1)
			if err != nil {
				return err
			}
			m := cache.Metrics()
			misses, hits, skips := m.MissesList-prev.MissesList, m.HitsSubsume-prev.HitsSubsume, m.ListSkips-prev.ListSkips
			prev = m
			if !ok {
				// No answer at φ=1: nothing reached Subset, so the counts
				// below do not apply; the sweep's smaller φ still run.
				continue
			}
			var want [4]int64 // misses, hits, skips, entries
			switch sight {
			case 1:
				lookups = misses
				want = [4]int64{lookups, 0, lookups, 0}
			case 2:
				want = [4]int64{lookups - 1, 1, 0, lookups - 1}
			case 3:
				want = [4]int64{0, lookups, 0, lookups - 1}
			}
			if got := [4]int64{misses, hits, skips, m.Entries}; got != want || lookups < 2 {
				return fmt.Errorf("%v: %s: list misses/hits/skips/entries = %v, want %v", c, label, got, want)
			}
		}
		for _, phi := range cachedSweep {
			for _, algo := range algos {
				if _, err := check(fmt.Sprintf("cached/%s/%s φ=%v", algo.name, gp.Name(), phi), algo.fn, phi); err != nil {
					return err
				}
			}
		}
		if m := cache.Metrics(); lookups > 0 && (m.MissesList != prev.MissesList || m.Entries != prev.Entries || m.HitsSubsume == prev.HitsSubsume) {
			return fmt.Errorf("%v: %s: sweep below the filled k was not served from lists: %+v, before it %+v", c, gp.Name(), m, prev)
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
