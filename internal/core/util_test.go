package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// TestPartialSelectProperty: the k smallest land in dists[:k] — the same
// multiset the full sort puts there — and nothing after them is smaller.
// Half the draws are distinct, half come from a small alphabet with +0,
// −0, the float just above them, +Inf and heavy duplicates — the runs of
// exact zeros IER's bounds near the root are; n reaches 512, past the
// range that finishes in the Hoare loop.
func TestPartialSelectProperty(t *testing.T) {
	alphabet := []float64{0, 0, 0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, 1, 2.5, 2.5, 7, math.Inf(1)}
	f := func(seed int64, n16 uint16, small bool) bool {
		n := int(n16)%512 + 1
		rng := rand.New(rand.NewSource(seed))
		vals := make([]float64, n)
		for i := range vals {
			if small {
				vals[i] = alphabet[rng.Intn(len(alphabet))]
			} else {
				vals[i] = rng.Float64() * 100
			}
		}
		k := rng.Intn(n) + 1
		want := append([]float64(nil), vals...)
		sort.Float64s(want)
		partialSelect(vals, k)
		if k < n && slices.Max(vals[:k]) > slices.Min(vals[k:]) {
			return false
		}
		got := append([]float64(nil), vals[:k]...)
		sort.Float64s(got)
		for i := 0; i < k; i++ {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 600}); err != nil {
		t.Fatal(err)
	}
}

func TestPartialSelectEdges(t *testing.T) {
	vals := []float64{3, 1, 2}
	partialSelect(vals, 0) // no-op
	partialSelect(vals, 3) // no-op
	partialSelect(vals, 5) // no-op
	single := []float64{7}
	partialSelect(single, 1)
	if single[0] != 7 {
		t.Fatal("single element disturbed")
	}
	dup := []float64{5, 5, 5, 5}
	partialSelect(dup, 2)
	if dup[0] != 5 || dup[1] != 5 {
		t.Fatal("duplicates mishandled")
	}
}

func TestPartialSelectWithInf(t *testing.T) {
	vals := []float64{math.Inf(1), 2, math.Inf(1), 1, 3}
	partialSelect(vals, 2)
	got := []float64{vals[0], vals[1]}
	sort.Float64s(got)
	if got[0] != 1 || got[1] != 2 {
		t.Fatalf("k smallest with Inf = %v", got)
	}
}

func TestFlexAggMatchesSort(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(50) + 1
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.Float64() * 100
		}
		k := rng.Intn(n) + 1
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		wantMax := sorted[k-1]
		wantSum := 0.0
		for _, v := range sorted[:k] {
			wantSum += v
		}
		a := append([]float64(nil), vals...)
		b := append([]float64(nil), vals...)
		return math.Abs(flexAgg(a, k, Max)-wantMax) < 1e-12 &&
			math.Abs(flexAgg(b, k, Sum)-wantSum) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQueryK(t *testing.T) {
	cases := []struct {
		m    int
		phi  float64
		want int
	}{
		{4, 0.5, 2},
		{4, 1.0, 4},
		{4, 0.1, 1},
		{5, 0.5, 3},  // ceil(2.5)
		{3, 0.34, 2}, // ceil(1.02)
		{1, 0.01, 1},
		{128, 0.5, 64},
	}
	for _, c := range cases {
		q := Query{Q: make([]int32, c.m), Phi: c.phi}
		if got := q.K(); got != c.want {
			t.Fatalf("K(m=%d, phi=%v) = %d, want %d", c.m, c.phi, got, c.want)
		}
	}
}

func TestAggregateString(t *testing.T) {
	if Max.String() != "max" || Sum.String() != "sum" {
		t.Fatal("Aggregate.String wrong")
	}
}

// BenchmarkPartialSelect prices the selection every g_φ evaluation and
// every Euclidean bound ends in, at the |Q| the benchmark serves (8 in
// shard4, 128 in hot_ier and algo_mix, 256 beside it) and k = ⌈φ|Q|⌉ for
// φ of 0.1, 0.5 and 1. "distinct" draws |Q| distinct values; "zeros"
// makes three in four of them +0, as in the bounds of an R-tree node
// whose rectangle covers most of Q. Each op copies one of 64 inputs in
// rotation into the buffer it selects in.
func BenchmarkPartialSelect(b *testing.B) {
	for _, n := range []int{8, 128, 256} {
		for _, phi := range []float64{0.1, 0.5, 1} {
			k := int(math.Ceil(phi * float64(n)))
			for _, input := range []string{"distinct", "zeros"} {
				rng := rand.New(rand.NewSource(int64(n)))
				ins := make([][]float64, 64)
				for i := range ins {
					ins[i] = make([]float64, n)
					for j := range ins[i] {
						if input == "distinct" || rng.Intn(4) == 0 {
							ins[i][j] = rng.Float64() * 100
						}
					}
				}
				buf := make([]float64, n)
				b.Run(fmt.Sprintf("n=%d/phi=%g/%s", n, phi, input), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						copy(buf, ins[i%len(ins)])
						partialSelect(buf, k)
					}
				})
			}
		}
	}
}
