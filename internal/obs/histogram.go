package obs

import (
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// DefBuckets are the default latency buckets in seconds, spanning 5µs
// to 10s — far below Prometheus's defaults on the low end, because the
// fast engines answer FANN queries in well under a millisecond on the
// scaled datasets and a semantic cache hit costs only a map lookup, so
// sub-100µs resolution is where the interesting separation lives.
var DefBuckets = []float64{
	0.000005, 0.00001, 0.000025, 0.00005,
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket histogram with lock-free observation:
// per-bucket atomic counts plus an atomic sum, rendered as the
// cumulative buckets a scraper estimates quantiles from.
type Histogram struct {
	bounds  []float64 // ascending upper bounds; +Inf bucket is implicit
	counts  []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64

	// exemplars holds the most recent exemplar per bucket (nil until a
	// request-tagged observation lands there). Stored behind atomic
	// pointers so observation stays lock-free and exposition reads a
	// consistent exemplar without tearing.
	exemplars []atomic.Pointer[Exemplar]
}

// Exemplar links a histogram bucket to a concrete recent request, so a
// latency spike on /metrics resolves to a captured trace in the
// slow-query log instead of an anonymous count.
type Exemplar struct {
	RequestID string
	Value     float64
	TS        float64 // unix seconds
}

// NewHistogram returns a histogram with the given ascending bucket upper
// bounds (nil = DefBuckets).
func NewHistogram(bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram buckets must be strictly ascending")
		}
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{
		bounds:    b,
		counts:    make([]atomic.Int64, len(b)+1),
		exemplars: make([]atomic.Pointer[Exemplar], len(b)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveEx records one value and tags the bucket it lands in with the
// request id, replacing that bucket's previous exemplar. An empty id
// degrades to a plain Observe.
func (h *Histogram) ObserveEx(v float64, requestID string) {
	h.Observe(v)
	if requestID == "" {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.exemplars[i].Store(&Exemplar{
		RequestID: requestID,
		Value:     v,
		TS:        float64(time.Now().UnixNano()) / 1e9,
	})
}

// bucketExemplars snapshots the per-bucket exemplars (entries are nil
// for buckets no tagged observation has reached).
func (h *Histogram) bucketExemplars() []*Exemplar {
	out := make([]*Exemplar, len(h.exemplars))
	for i := range h.exemplars {
		out[i] = h.exemplars[i].Load()
	}
	return out
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// bucketCounts snapshots the per-bucket (non-cumulative) counts; the
// last entry is the +Inf overflow bucket.
func (h *Histogram) bucketCounts() []int64 {
	out := make([]int64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}
