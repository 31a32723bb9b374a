package difftest

import (
	"sync"
	"testing"

	"fannr/internal/core"
)

// envSpec fixes the deterministic graph fleet the harness sweeps. Sizes
// differ so leaf/boundary behavior differs across G-tree depths.
var envSpecs = []struct {
	nodes int
	seed  int64
}{
	{180, 11},
	{260, 12},
	{340, 13},
	{420, 14},
}

// TestDifferentialVsBrute is the acceptance harness: ≥ 300 seeded cases,
// each run through every engine × applicable algorithm × aggregate and
// compared against core.Brute / core.KBrute, plus metamorphic invariants.
// Any disagreement reports the case seed for standalone reproduction.
func TestDifferentialVsBrute(t *testing.T) {
	casesPerEnv := 80 // 4 envs × 80 = 320 cases
	if testing.Short() {
		casesPerEnv = 20
	}
	for _, spec := range envSpecs {
		t.Run(string(rune('A'+spec.seed-11)), func(t *testing.T) {
			t.Parallel()
			env, err := NewEnv(spec.nodes, spec.seed)
			if err != nil {
				t.Fatal(err)
			}
			// Every engine can end an evaluation early (DistBelow) and
			// must have done so somewhere in the corpus: agreement with
			// brute force then says each one's bound path is exact, not
			// that it was never taken.
			abandoned := make([]core.Stats, len(env.Engines))
			for i, gp := range env.Engines {
				core.BindStats(gp, &abandoned[i])
			}
			for i := 0; i < casesPerEnv; i++ {
				c := GenCase(spec.seed*10_000+int64(i), env.G)
				if err := env.RunCase(c); err != nil {
					t.Fatal(err)
				}
			}
			for i, gp := range env.Engines {
				if abandoned[i].GPhiAbandoned == 0 {
					t.Fatalf("%s abandoned no evaluation over %d cases", gp.Name(), casesPerEnv)
				}
			}
		})
	}
}

// TestDifferentialSharded is the scatter-gather acceptance gate: the
// same ≥ 300-case matrix, each case executed through an in-process
// sharded deployment at S ∈ {1, 2, 4} and compared against
// core.KBrute — partitioning, per-shard bounds, pruning and merging must
// be observationally invisible. A chaos sweep then kills one shard per
// case and requires the degraded answer to equal brute force over the
// surviving shards' objects, stamped degraded, never silently wrong.
func TestDifferentialSharded(t *testing.T) {
	casesPerEnv := 80 // 4 envs × 80 = 320 cases
	chaosPerEnv := 10
	if testing.Short() {
		casesPerEnv, chaosPerEnv = 20, 3
	}
	for _, spec := range envSpecs {
		t.Run(string(rune('A'+spec.seed-11)), func(t *testing.T) {
			t.Parallel()
			env, err := NewEnv(spec.nodes, spec.seed)
			if err != nil {
				t.Fatal(err)
			}
			se, err := NewShardedEnv(env, 1, 2, 4)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < casesPerEnv; i++ {
				c := GenCase(spec.seed*10_000+int64(i), env.G)
				if err := se.RunCaseSharded(c); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < chaosPerEnv; i++ {
				c := GenCase(spec.seed*30_000+int64(i), env.G)
				if err := se.RunCaseShardedChaos(c, 4); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestDifferentialMmapVsHeap is the beyond-RAM loading gate: the same
// engine suite is assembled twice, once over heap-loaded and once over
// mmap-loaded (zero-copy, read-only pages) v4 index files, and the full
// 320-case sweep must produce bit-identical answers from both. Because
// the mmapped slabs are PROT_READ, this is also the immutability audit:
// an engine writing into a loaded index would segfault here.
func TestDifferentialMmapVsHeap(t *testing.T) {
	casesPerEnv := 80 // 4 envs × 80 = 320 cases
	if testing.Short() {
		casesPerEnv = 20
	}
	for _, spec := range envSpecs {
		t.Run(string(rune('A'+spec.seed-11)), func(t *testing.T) {
			t.Parallel()
			heapEnv, err := NewEnvLoaded(spec.nodes, spec.seed, t.TempDir(), false)
			if err != nil {
				t.Fatal(err)
			}
			mmapEnv, err := NewEnvLoaded(spec.nodes, spec.seed, t.TempDir(), true)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < casesPerEnv; i++ {
				c := GenCase(spec.seed*10_000+int64(i), heapEnv.G)
				if err := heapEnv.RunCaseIdentical(mmapEnv, c); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestDifferentialSetRegistry is the set registry's acceptance gate: the
// full corpus, every case walked through first sight, fill and hit on
// the single-process path (every algorithm) and through the coordinator
// at S ∈ {1, 2, 4}, answers held to the registry-less ones bit for bit
// and to brute force; a permuted and a duplicate-carrying re-send keep
// the fingerprint and the distances.
func TestDifferentialSetRegistry(t *testing.T) {
	casesPerEnv := 80 // 4 envs × 80 = 320 cases
	if testing.Short() {
		casesPerEnv = 20
	}
	for _, spec := range envSpecs {
		t.Run(string(rune('A'+spec.seed-11)), func(t *testing.T) {
			t.Parallel()
			env, err := NewEnv(spec.nodes, spec.seed)
			if err != nil {
				t.Fatal(err)
			}
			se, err := NewShardedEnv(env, 1, 2, 4)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < casesPerEnv; i++ {
				c := GenCase(spec.seed*10_000+int64(i), env.G)
				if err := env.RunCaseRegistered(c); err != nil {
					t.Fatal(err)
				}
				if err := se.RunCaseShardedRegistered(c); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// The case generator must be deterministic per seed — CI failures have to
// reproduce locally from the logged seed alone.
func TestGenCaseDeterministic(t *testing.T) {
	env, err := NewEnv(120, 5)
	if err != nil {
		t.Fatal(err)
	}
	a := GenCase(42, env.G)
	b := GenCase(42, env.G)
	if a.String() != b.String() {
		t.Fatalf("nondeterministic case: %v vs %v", a, b)
	}
	if len(a.P) != len(b.P) || len(a.Q) != len(b.Q) {
		t.Fatal("nondeterministic point sets")
	}
	for i := range a.P {
		if a.P[i] != b.P[i] {
			t.Fatal("nondeterministic P")
		}
	}
	for i := range a.Q {
		if a.Q[i] != b.Q[i] {
			t.Fatal("nondeterministic Q")
		}
	}
}

var (
	fuzzEnvOnce sync.Once
	fuzzEnv     *Env
	fuzzEnvErr  error
)

// FuzzDifferentialCase lets the native fuzzer drive case selection: any
// seed the engine mutates into a disagreement lands in testdata/fuzz as a
// permanent regression case. `make fuzz-smoke` runs it for 10s per CI
// pass; the seed corpus replays as a plain test otherwise.
func FuzzDifferentialCase(f *testing.F) {
	f.Add(int64(1))
	f.Add(int64(77))
	f.Add(int64(-39))
	f.Add(int64(1 << 40))
	f.Fuzz(func(t *testing.T, seed int64) {
		fuzzEnvOnce.Do(func() { fuzzEnv, fuzzEnvErr = NewEnv(140, 9) })
		if fuzzEnvErr != nil {
			t.Fatal(fuzzEnvErr)
		}
		if err := fuzzEnv.RunCase(GenCase(seed, fuzzEnv.G)); err != nil {
			t.Fatal(err)
		}
	})
}
