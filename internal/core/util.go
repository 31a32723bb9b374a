package core

import "math"

// partialSelect rearranges dists so that the k smallest values occupy
// dists[:k] (unordered) and none after them is smaller. It is the O(m)
// kernel behind the Euclidean flexible aggregate g^ε_φ, which the IER-kNN
// framework evaluates for every R-tree entry it touches, and behind every
// engine's selection of the k nearest.
//
// Every value must be non-negative and not NaN; +Inf is allowed and −0
// reads as +0. Such floats order like their bits as uint64, so a range of
// more than selectCut values is partitioned without a data-dependent
// branch per element: a Lomuto pass around a median-of-three pivot swaps every
// element and moves the boundary by the borrow of an integer subtraction.
// When k lies past the smaller values and the pivot was the least of the
// range, a second pass of the same shape gathers the run equal to it, and
// selection ends once k lands inside that run — the case of IER's root
// bounds, runs of exact zeros. A range of selectCut or fewer finishes in
// a Hoare quickselect, whose few mispredicted compares cost less there
// than passes that swap everything (BenchmarkPartialSelect at |Q| = 8).
func partialSelect(dists []float64, k int) {
	lo, hi := 0, len(dists)
	if k <= 0 || k >= hi {
		return
	}
	for hi-lo > selectCut {
		p := key(medianOfThree(dists, lo, hi))
		j := lo
		for i := lo; i < hi; i++ {
			v := dists[i]
			dists[i], dists[j] = dists[j], v
			j += int((key(v) - p) >> 63)
		}
		switch {
		case k <= j:
			hi = j
			continue
		case j > lo:
			lo = j
			continue
		}
		// Nothing is below the pivot: bring the values equal to it (key
		// below p+1) forward. The pivot is one, so the run is not empty.
		m := j
		for i := j; i < hi; i++ {
			v := dists[i]
			dists[i], dists[m] = dists[m], v
			m += int((key(v) - p - 1) >> 63)
		}
		if k <= m {
			return
		}
		lo = m
	}
	for hi-lo > 1 {
		p := medianOfThree(dists, lo, hi)
		i, j := lo, hi-1
		for i <= j {
			for dists[i] < p {
				i++
			}
			for dists[j] > p {
				j--
			}
			if i <= j {
				dists[i], dists[j] = dists[j], dists[i]
				i++
				j--
			}
		}
		switch {
		case k <= j+1:
			hi = j + 1
		case k >= i:
			lo = i
		default:
			return // the boundary falls inside the pivot run
		}
	}
}

// selectCut is the range partialSelect stops partitioning branch-free at.
const selectCut = 16

func medianOfThree(d []float64, lo, hi int) float64 {
	a, b, c := d[lo], d[(lo+hi)/2], d[hi-1]
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
		if a > b {
			b = a
		}
	}
	return b
}

// key maps a non-negative, non-NaN float to an integer of the same order:
// its bits with the sign cleared, so −0 keys as +0. Keys stay below 2⁶³,
// so the top bit of a difference of two keys is its borrow.
func key(v float64) uint64 { return math.Float64bits(v) &^ (1 << 63) }

// maxOfFirst returns the maximum of dists[:k].
func maxOfFirst(dists []float64, k int) float64 {
	m := dists[0]
	for _, d := range dists[1:k] {
		if d > m {
			m = d
		}
	}
	return m
}

// sumOfFirst returns the sum of dists[:k].
func sumOfFirst(dists []float64, k int) float64 {
	total := 0.0
	for _, d := range dists[:k] {
		total += d
	}
	return total
}

// flexAgg selects the k smallest of dists (rearranging the slice) and
// folds them with agg: the "aggregate of the k nearest" step of R-List's
// threshold, the verifier and the PHL prefix bounds. The Euclidean bound
// is rootAgg, the same step over squares.
func flexAgg(dists []float64, k int, agg Aggregate) float64 {
	partialSelect(dists, k)
	return aggOf(dists, k, agg)
}
