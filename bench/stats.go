package main

import (
	"math"
	"sort"
	"time"
)

// percentile is the nearest-rank p-th percentile (0 < p ≤ 100) of an
// ascending slice: the smallest element with at least p % of the sample
// at or below it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// samplesBeyond is how many of n samples lie strictly above the
// nearest-rank p-th percentile. A tail percentile is only reported as a
// gate when at least ten samples lie beyond it.
func samplesBeyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - int(math.Ceil(p/100*float64(n)))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 50)
}

// A closed phase is cut into at most maxSegments equal consecutive groups
// of requests. A group is a whole number of algo_mix's blocks of 100, so
// that every group holds the same mix, and at least two, so that its 95th
// percentile has ten samples beyond it.
const (
	maxSegments = 40
	block       = 100
	quietShare  = 10 // per cent of the segments, from the better end
)

// segmentSize is the number of requests in each group of a phase of about
// n requests; the phase runs the whole groups that fit.
func segmentSize(n int) int {
	blocks := (n + maxSegments*block - 1) / (maxSegments * block)
	return max(2, blocks) * block
}

// segment is what one group measured. Equal groups of the request
// sequence rather than equal slices of time, so that a group is the same
// work on both sides of a comparison.
type segment struct {
	QPS   float64 `json:"qps"`    // requests ÷ time since the previous group's last reply
	P50ms float64 `json:"p50_ms"` // nearest-rank percentiles of the round trips
	P95ms float64 `json:"p95_ms"`
	CPUms float64 `json:"cpu_ms"` // server CPU time ÷ requests
}

// cutSegments measures each group of size requests. lat and done hold
// every request's round trip and completion offset from the phase start,
// ok which of them were answered; cpu[k] is the server's CPU seconds when
// group k began, and cpu[len(lat)/size] when the phase ended.
func cutSegments(lat, done []time.Duration, ok func(i int) bool, cpu []float64, size int) []segment {
	out := make([]segment, len(lat)/size)
	var from time.Duration
	for k := range out {
		var ms []float64
		to := from
		for i := k * size; i < (k+1)*size; i++ {
			if ok(i) {
				ms = append(ms, millis(lat[i]))
			}
			to = max(to, done[i])
		}
		sort.Float64s(ms)
		out[k] = segment{P50ms: percentile(ms, 50), P95ms: percentile(ms, 95), CPUms: (cpu[k+1] - cpu[k]) * 1e3 / float64(size)}
		if to > from {
			out[k].QPS = float64(len(ms)) / (to - from).Seconds()
		}
		from = to
	}
	return out
}

// quiet is the value quietShare per cent of the way in from the better
// end of what the segments measured: what the program does while the
// host leaves it alone. A shared host only ever slows a segment down —
// a neighbour takes the cache, the hypervisor is late waking a core — and
// does so for seconds to minutes at a time, so the median over a run
// follows the host while the quiet tenth follows the program.
func quiet(segs []segment, of func(segment) float64, better string) float64 {
	xs := make([]float64, len(segs))
	for i, s := range segs {
		xs[i] = of(s)
		if better == "higher" {
			xs[i] = -xs[i]
		}
	}
	sort.Float64s(xs)
	v := percentile(xs, quietShare)
	if better == "higher" {
		v = -v
	}
	return v
}

// span is one timed call: the shape both the server's ?explain=1 tree
// (flattened) and the in-process ladder's recorder produce. parent is an
// index into the same slice, -1 for a root.
type span struct {
	Name    string `json:"name"`
	Start   int64  `json:"start_us"`
	End     int64  `json:"end_us"`
	Parent  int    `json:"parent"`
	Request int    `json:"request"`
}

// selfTimes returns each span's duration minus the part of its interval
// that its direct children cover. Children are clipped to the parent and
// overlapping children (concurrent shard calls) are counted once.
func selfTimes(spans []span) []int64 {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].Start < spans[ks[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range ks {
			lo, hi := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// noiseCV is the coefficient of variation of runs timings of one fixed
// integer loop: how unsteady this host is while the benchmark runs. It
// is context for reading a report, never a gate.
func noiseCV(runs int) float64 {
	times := make([]float64, runs)
	for i := range times {
		start := time.Now()
		x := uint64(i)
		for j := 0; j < 12_000_000; j++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
		noiseSink = x
		times[i] = time.Since(start).Seconds()
	}
	mean, sq := 0.0, 0.0
	for _, t := range times {
		mean += t
	}
	mean /= float64(runs)
	for _, t := range times {
		sq += (t - mean) * (t - mean)
	}
	return math.Sqrt(sq/float64(runs)) / mean
}

var noiseSink uint64
