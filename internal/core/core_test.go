package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"fannr/internal/graph"
	"fannr/internal/gtree"
	"fannr/internal/phl"
	"fannr/internal/sp"
)

// testEnv bundles a road network with one engine of every kind.
type testEnv struct {
	g       *graph.Graph
	engines []GPhi
}

func newTestEnv(t testing.TB, nodes int, seed int64) *testEnv {
	t.Helper()
	g, err := graph.Generate(graph.GenConfig{Nodes: nodes, Seed: seed, Name: "core"})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := phl.Build(g, phl.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := gtree.Build(g, gtree.Options{MaxLeafSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	env := &testEnv{g: g}
	env.engines = append(env.engines,
		NewINE(g),
		NewOracleGPhi("A*", sp.NewAStar(g)),
		NewOracleGPhi("PHL", ix),
		NewGTreeGPhi(tr),
	)
	for _, spec := range []struct {
		name string
		o    Oracle
	}{
		{"IER-A*", sp.NewAStar(g)},
		{"IER-PHL", ix},
		{"IER-GTree", tr.NewQuerier()},
	} {
		e, err := NewIERGPhi(spec.name, g, spec.o)
		if err != nil {
			t.Fatal(err)
		}
		env.engines = append(env.engines, e)
	}
	return env
}

// randomQuery draws P and Q uniformly without replacement.
func (env *testEnv) randomQuery(rng *rand.Rand, np, nq int, phi float64, agg Aggregate) Query {
	n := env.g.NumNodes()
	pick := func(count int) []graph.NodeID {
		seen := map[int32]bool{}
		out := make([]graph.NodeID, 0, count)
		for len(out) < count {
			v := int32(rng.Intn(n))
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
		return out
	}
	return Query{P: pick(np), Q: pick(nq), Phi: phi, Agg: agg}
}

// checkAnswer verifies an answer's internal consistency: the subset has k
// distinct members of Q, and its true aggregate distance equals Dist.
func checkAnswer(t *testing.T, g *graph.Graph, q Query, a Answer, label string) {
	t.Helper()
	k := q.K()
	if len(a.Subset) != k {
		t.Fatalf("%s: subset size %d, want %d", label, len(a.Subset), k)
	}
	inQ := map[graph.NodeID]int{}
	for _, v := range q.Q {
		inQ[v]++
	}
	seen := map[graph.NodeID]bool{}
	for _, v := range a.Subset {
		if inQ[v] == 0 {
			t.Fatalf("%s: subset member %d not in Q", label, v)
		}
		if seen[v] {
			t.Fatalf("%s: subset member %d duplicated", label, v)
		}
		seen[v] = true
	}
	d := sp.NewDijkstra(g)
	all := d.All(a.P)
	val := 0.0
	for _, v := range a.Subset {
		if q.Agg == Max {
			val = math.Max(val, all[v])
		} else {
			val += all[v]
		}
	}
	if math.Abs(val-a.Dist) > 1e-6 {
		t.Fatalf("%s: reported dist %v but subset aggregates to %v", label, a.Dist, val)
	}
}

func TestAllAlgorithmsMatchBruteForce(t *testing.T) {
	env := newTestEnv(t, 700, 42)
	rng := rand.New(rand.NewSource(7))
	rtCache := map[string]bool{}
	_ = rtCache
	for trial := 0; trial < 8; trial++ {
		agg := Max
		if trial%2 == 1 {
			agg = Sum
		}
		phi := []float64{0.1, 0.3, 0.5, 0.7, 1.0}[trial%5]
		q := env.randomQuery(rng, 30, 12, phi, agg)
		want, err := Brute(env.g, q)
		if err != nil {
			t.Fatal(err)
		}
		rtP := BuildPTree(env.g, q.P)
		for _, gp := range env.engines {
			got, err := GD(env.g, gp, q)
			if err != nil {
				t.Fatalf("GD/%s: %v", gp.Name(), err)
			}
			if math.Abs(got.Dist-want.Dist) > 1e-6 {
				t.Fatalf("GD/%s: dist %v, want %v (trial %d)", gp.Name(), got.Dist, want.Dist, trial)
			}
			checkAnswer(t, env.g, q, got, "GD/"+gp.Name())

			got, err = RList(env.g, gp, q)
			if err != nil {
				t.Fatalf("RList/%s: %v", gp.Name(), err)
			}
			if math.Abs(got.Dist-want.Dist) > 1e-6 {
				t.Fatalf("RList/%s: dist %v, want %v", gp.Name(), got.Dist, want.Dist)
			}
			checkAnswer(t, env.g, q, got, "RList/"+gp.Name())

			got, err = IERKNN(env.g, rtP, gp, q)
			if err != nil {
				t.Fatalf("IERKNN/%s: %v", gp.Name(), err)
			}
			if math.Abs(got.Dist-want.Dist) > 1e-6 {
				t.Fatalf("IERKNN/%s: dist %v, want %v", gp.Name(), got.Dist, want.Dist)
			}
			checkAnswer(t, env.g, q, got, "IERKNN/"+gp.Name())

			if agg == Max {
				got, err = ExactMax(env.g, gp, q)
				if err != nil {
					t.Fatalf("ExactMax/%s: %v", gp.Name(), err)
				}
				if math.Abs(got.Dist-want.Dist) > 1e-6 {
					t.Fatalf("ExactMax/%s: dist %v, want %v", gp.Name(), got.Dist, want.Dist)
				}
				checkAnswer(t, env.g, q, got, "ExactMax/"+gp.Name())
			}
		}
	}
}

func TestAPXSumApproximationBound(t *testing.T) {
	env := newTestEnv(t, 600, 43)
	rng := rand.New(rand.NewSource(9))
	gp := env.engines[0] // INE
	worst := 0.0
	for trial := 0; trial < 15; trial++ {
		phi := []float64{0.2, 0.5, 0.8, 1.0}[trial%4]
		q := env.randomQuery(rng, 40, 10, phi, Sum)
		want, err := Brute(env.g, q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := APXSum(env.g, gp, q)
		if err != nil {
			t.Fatal(err)
		}
		checkAnswer(t, env.g, q, got, "APXSum")
		ratio := got.Dist / want.Dist
		if want.Dist == 0 {
			ratio = 1
		}
		if ratio < 1-1e-9 {
			t.Fatalf("APXSum beat the optimum: %v < %v", got.Dist, want.Dist)
		}
		if ratio > APXSumRatioBound(q)+1e-9 {
			t.Fatalf("APXSum ratio %v exceeds bound %v", ratio, APXSumRatioBound(q))
		}
		if ratio > worst {
			worst = ratio
		}
	}
	t.Logf("worst observed APX-sum ratio: %.4f", worst)
}

func TestAPXSumTwoApproxWhenQSubsetOfP(t *testing.T) {
	env := newTestEnv(t, 500, 44)
	rng := rand.New(rand.NewSource(10))
	gp := env.engines[0]
	for trial := 0; trial < 10; trial++ {
		q := env.randomQuery(rng, 40, 8, 0.5, Sum)
		q.P = append(q.P, q.Q...) // force Q ⊆ P
		if APXSumRatioBound(q) != 2 {
			t.Fatal("ratio bound should be 2 when Q ⊆ P")
		}
		want, err := Brute(env.g, q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := APXSum(env.g, gp, q)
		if err != nil {
			t.Fatal(err)
		}
		if want.Dist > 0 && got.Dist/want.Dist > 2+1e-9 {
			t.Fatalf("ratio %v exceeds 2 with Q ⊆ P", got.Dist/want.Dist)
		}
	}
}

func TestExactMaxRejectsSum(t *testing.T) {
	env := newTestEnv(t, 300, 45)
	rng := rand.New(rand.NewSource(11))
	q := env.randomQuery(rng, 10, 5, 0.5, Sum)
	if _, err := ExactMax(env.g, env.engines[0], q); err == nil {
		t.Fatal("ExactMax accepted sum aggregate")
	}
	if _, err := KExactMax(env.g, env.engines[0], q, 3); err == nil {
		t.Fatal("KExactMax accepted sum aggregate")
	}
	if _, err := APXSum(env.g, env.engines[0], Query{P: q.P, Q: q.Q, Phi: 0.5, Agg: Max}); err == nil {
		t.Fatal("APXSum accepted max aggregate")
	}
}

// TestCounterExampleTableII reproduces the paper's §IV-A counter-example
// class: greedy visit counting does pick the wrong answer for sum, which
// is why ExactMax guards against Sum. We verify the exact algorithms still
// solve such instances correctly.
func TestCounterExampleTableII(t *testing.T) {
	// A star-like network where the first point surfaced twice (p2) has a
	// worse sum than a point surfaced later (p1).
	//
	//   q2 --2-- p1 --9-- q3      q1 --4-- p2, p2 --6-- q2' path etc.
	b := graph.NewBuilder(9)
	x := []float64{0, 10, 20, 30, 40, 50, 60, 70, 80}
	y := make([]float64, 9)
	if err := b.SetCoords(x, y); err != nil {
		t.Fatal(err)
	}
	// ids: 0..4 = q1..q5, 5 = p1, 6 = p2, 7 = p3, 8 = p4
	edges := []graph.Edge{
		{U: 1, V: 5, W: 2},  // q2 - p1 = 2
		{U: 2, V: 5, W: 11}, // q3 - p1 = 11
		{U: 0, V: 6, W: 4},  // q1 - p2 = 4
		{U: 1, V: 6, W: 10}, // q2 - p2 = 10
		{U: 4, V: 6, W: 15}, // q5 - p2 = 15
		{U: 3, V: 8, W: 14}, // q4 - p4 = 14
		{U: 7, V: 0, W: 50}, // p3 far away, keeps graph connected
		{U: 7, V: 3, W: 50},
		{U: 8, V: 4, W: 60},
	}
	for _, e := range edges {
		if err := b.AddEdge(e.U, e.V, e.W); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	q := Query{
		P:   []graph.NodeID{5, 6, 7, 8},
		Q:   []graph.NodeID{0, 1, 2, 3, 4},
		Phi: 0.4, // k = 2
		Agg: Sum,
	}
	want, err := Brute(g, q)
	if err != nil {
		t.Fatal(err)
	}
	// Greedy counting would pick p2 (first to be surfaced twice: q1 at 4,
	// q2 at 10) with sum 14; the optimum is p1 with 2 + 11 = 13.
	if want.P != 5 || math.Abs(want.Dist-13) > 1e-9 {
		t.Fatalf("counter-example optimum = (%d, %v), want (5, 13)", want.P, want.Dist)
	}
	gp := NewINE(g)
	for name, fn := range map[string]func() (Answer, error){
		"GD":    func() (Answer, error) { return GD(g, gp, q) },
		"RList": func() (Answer, error) { return RList(g, gp, q) },
	} {
		got, err := fn()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.P != want.P || math.Abs(got.Dist-want.Dist) > 1e-9 {
			t.Fatalf("%s = (%d, %v), want (%d, %v)", name, got.P, got.Dist, want.P, want.Dist)
		}
	}
}

func TestKFANNMatchesBruteForce(t *testing.T) {
	env := newTestEnv(t, 600, 46)
	rng := rand.New(rand.NewSource(12))
	gp := env.engines[0] // INE
	for trial := 0; trial < 6; trial++ {
		agg := Max
		if trial%2 == 1 {
			agg = Sum
		}
		q := env.randomQuery(rng, 40, 10, 0.5, agg)
		kAns := 1 + rng.Intn(8)
		want, err := KBrute(env.g, q, kAns)
		if err != nil {
			t.Fatal(err)
		}
		check := func(name string, got []Answer, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s: %d answers, want %d", name, len(got), len(want))
			}
			for i := range got {
				if math.Abs(got[i].Dist-want[i].Dist) > 1e-6 {
					t.Fatalf("%s: answer %d dist %v, want %v", name, i, got[i].Dist, want[i].Dist)
				}
			}
			seen := map[graph.NodeID]bool{}
			for _, a := range got {
				if seen[a.P] {
					t.Fatalf("%s: duplicate data point %d", name, a.P)
				}
				seen[a.P] = true
			}
		}
		got, err := KGD(env.g, gp, q, kAns)
		check("KGD", got, err)
		got, err = KRList(env.g, gp, q, kAns)
		check("KRList", got, err)
		rtP := BuildPTree(env.g, q.P)
		got, err = KIERKNN(env.g, rtP, gp, q, kAns)
		check("KIERKNN", got, err)
		if agg == Max {
			got, err = KExactMax(env.g, gp, q, kAns)
			check("KExactMax", got, err)
		}
	}
}

func TestKFANNLargerThanP(t *testing.T) {
	env := newTestEnv(t, 300, 47)
	rng := rand.New(rand.NewSource(13))
	q := env.randomQuery(rng, 5, 6, 0.5, Max)
	gp := env.engines[0]
	got, err := KGD(env.g, gp, q, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("KGD returned %d answers, want all 5", len(got))
	}
	got2, err := KExactMax(env.g, gp, q, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(got2) != 5 {
		t.Fatalf("KExactMax returned %d answers, want all 5", len(got2))
	}
}

func TestValidation(t *testing.T) {
	env := newTestEnv(t, 200, 48)
	gp := env.engines[0]
	bad := []Query{
		{P: nil, Q: []graph.NodeID{1}, Phi: 0.5, Agg: Max},
		{P: []graph.NodeID{1}, Q: nil, Phi: 0.5, Agg: Max},
		{P: []graph.NodeID{1}, Q: []graph.NodeID{2}, Phi: 0, Agg: Max},
		{P: []graph.NodeID{1}, Q: []graph.NodeID{2}, Phi: 1.5, Agg: Max},
		{P: []graph.NodeID{-1}, Q: []graph.NodeID{2}, Phi: 0.5, Agg: Max},
		{P: []graph.NodeID{1}, Q: []graph.NodeID{99999}, Phi: 0.5, Agg: Max},
	}
	for i, q := range bad {
		if _, err := GD(env.g, gp, q); err == nil {
			t.Fatalf("bad query %d accepted by GD", i)
		}
		if _, err := KGD(env.g, gp, q, 2); err == nil {
			t.Fatalf("bad query %d accepted by KGD", i)
		}
	}
	if _, err := KGD(env.g, gp, Query{P: []graph.NodeID{1}, Q: []graph.NodeID{2}, Phi: 0.5, Agg: Max}, 0); err == nil {
		t.Fatal("kAns=0 accepted")
	}
}

func TestDisconnectedNoResult(t *testing.T) {
	// P and Q in different components.
	b := graph.NewBuilder(6)
	x := []float64{0, 1, 2, 10, 11, 12}
	y := make([]float64, 6)
	_ = b.SetCoords(x, y)
	_ = b.AddEdge(0, 1, 1)
	_ = b.AddEdge(1, 2, 1)
	_ = b.AddEdge(3, 4, 1)
	_ = b.AddEdge(4, 5, 1)
	g, _ := b.Build()
	q := Query{P: []graph.NodeID{0, 1}, Q: []graph.NodeID{3, 4, 5}, Phi: 0.5, Agg: Max}
	gp := NewINE(g)
	if _, err := GD(g, gp, q); !errors.Is(err, ErrNoResult) {
		t.Fatalf("GD err = %v, want ErrNoResult", err)
	}
	if _, err := RList(g, gp, q); !errors.Is(err, ErrNoResult) {
		t.Fatalf("RList err = %v, want ErrNoResult", err)
	}
	if _, err := ExactMax(g, gp, q); !errors.Is(err, ErrNoResult) {
		t.Fatalf("ExactMax err = %v, want ErrNoResult", err)
	}
	if _, err := Brute(g, q); !errors.Is(err, ErrNoResult) {
		t.Fatalf("Brute err = %v, want ErrNoResult", err)
	}
	if _, err := APXSum(g, gp, Query{P: q.P, Q: q.Q, Phi: 0.5, Agg: Sum}); !errors.Is(err, ErrNoResult) {
		t.Fatalf("APXSum err = %v, want ErrNoResult", err)
	}
	rtP := BuildPTree(g, q.P)
	if _, err := IERKNN(g, rtP, gp, q); !errors.Is(err, ErrNoResult) {
		t.Fatalf("IERKNN err = %v, want ErrNoResult", err)
	}
}

// TestPartialReachability: some query points unreachable, but enough
// remain for k = ⌈φ|Q|⌉.
func TestPartialReachability(t *testing.T) {
	b := graph.NewBuilder(7)
	x := []float64{0, 1, 2, 3, 50, 51, 52}
	y := make([]float64, 7)
	_ = b.SetCoords(x, y)
	_ = b.AddEdge(0, 1, 1)
	_ = b.AddEdge(1, 2, 1)
	_ = b.AddEdge(2, 3, 1)
	_ = b.AddEdge(4, 5, 1)
	_ = b.AddEdge(5, 6, 1)
	g, _ := b.Build()
	// Q has 2 reachable (1, 3) and 2 unreachable (5, 6) members; φ=0.5 → k=2.
	q := Query{P: []graph.NodeID{0, 2}, Q: []graph.NodeID{1, 3, 5, 6}, Phi: 0.5, Agg: Sum}
	want, err := Brute(g, q)
	if err != nil {
		t.Fatal(err)
	}
	// p=2: dists {1,1} sum 2; p=0: {1,3} sum 4.
	if want.P != 2 || math.Abs(want.Dist-2) > 1e-9 {
		t.Fatalf("Brute = (%d,%v), want (2,2)", want.P, want.Dist)
	}
	gp := NewINE(g)
	got, err := GD(g, gp, q)
	if err != nil || got.P != 2 {
		t.Fatalf("GD = (%+v, %v)", got, err)
	}
	got, err = RList(g, gp, q)
	if err != nil || math.Abs(got.Dist-2) > 1e-9 {
		t.Fatalf("RList = (%+v, %v)", got, err)
	}
}

func TestQueryPointsCoincideWithDataPoints(t *testing.T) {
	env := newTestEnv(t, 400, 49)
	rng := rand.New(rand.NewSource(14))
	q := env.randomQuery(rng, 20, 8, 0.5, Max)
	q.Q[0] = q.P[0] // overlap
	want, err := Brute(env.g, q)
	if err != nil {
		t.Fatal(err)
	}
	for _, gp := range env.engines {
		got, err := GD(env.g, gp, q)
		if err != nil {
			t.Fatalf("GD/%s: %v", gp.Name(), err)
		}
		if math.Abs(got.Dist-want.Dist) > 1e-6 {
			t.Fatalf("GD/%s: %v vs %v", gp.Name(), got.Dist, want.Dist)
		}
	}
}

func TestIERGPhiRequiresCoords(t *testing.T) {
	b := graph.NewBuilder(3)
	_ = b.AddEdge(0, 1, 1)
	_ = b.AddEdge(1, 2, 1)
	g, _ := b.Build()
	if _, err := NewIERGPhi("IER-A*", g, sp.NewAStar(g)); err == nil {
		t.Fatal("IER engine accepted coordless graph")
	}
}

// Property: GD with INE matches Brute across random graphs and queries.
func TestGDPropertyAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("slow property test")
	}
	for seed := int64(1); seed <= 5; seed++ {
		g, err := graph.Generate(graph.GenConfig{Nodes: 250, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed * 31))
		gp := NewINE(g)
		for trial := 0; trial < 5; trial++ {
			env := &testEnv{g: g}
			agg := Aggregate(trial % 2)
			q := env.randomQuery(rng, 15, 7, 0.1+0.9*rng.Float64(), agg)
			want, err := Brute(g, q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := GD(g, gp, q)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got.Dist-want.Dist) > 1e-6 {
				t.Fatalf("seed %d: GD %v vs Brute %v", seed, got.Dist, want.Dist)
			}
		}
	}
}
