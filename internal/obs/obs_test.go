package obs

import (
	"math"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestExpositionGolden pins the text format byte-for-byte for one
// registry state covering every metric kind, then proves the in-repo
// scraper parses it back to the same numbers — the format contract the
// server's /metrics endpoint inherits.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("fannr_requests_total", "Requests served.", L("route", "/fann"), L("code", "ok")).Add(3)
	r.Counter("fannr_requests_total", "Requests served.", L("route", "/fann"), L("code", "invalid")).Add(1)
	r.GaugeFunc("fannr_draining", "1 while draining.", func() float64 { return 0 })
	r.GaugeFunc("fannr_pool_inflight", "Engines checked out.", func() float64 { return 2 }, L("engine", "INE"))
	h := r.Histogram("fannr_request_seconds", "Request latency.", []float64{0.001, 0.01, 0.1}, L("route", "/fann"))
	h.Observe(0.0005)
	h.Observe(0.0005)
	h.Observe(0.05)
	h.Observe(7) // overflow bucket

	const want = `# HELP fannr_draining 1 while draining.
# TYPE fannr_draining gauge
fannr_draining 0
# HELP fannr_pool_inflight Engines checked out.
# TYPE fannr_pool_inflight gauge
fannr_pool_inflight{engine="INE"} 2
# HELP fannr_request_seconds Request latency.
# TYPE fannr_request_seconds histogram
fannr_request_seconds_bucket{le="0.001",route="/fann"} 2
fannr_request_seconds_bucket{le="0.01",route="/fann"} 2
fannr_request_seconds_bucket{le="0.1",route="/fann"} 3
fannr_request_seconds_bucket{le="+Inf",route="/fann"} 4
fannr_request_seconds_sum{route="/fann"} 7.051
fannr_request_seconds_count{route="/fann"} 4
# HELP fannr_requests_total Requests served.
# TYPE fannr_requests_total counter
fannr_requests_total{code="invalid",route="/fann"} 1
fannr_requests_total{code="ok",route="/fann"} 3
`
	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if b.String() != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", b.String(), want)
	}

	// Round-trip through the scraper.
	sc, err := ParseExposition(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := sc.Value("fannr_requests_total", L("route", "/fann"), L("code", "ok")); !ok || v != 3 {
		t.Errorf("scraped requests_total ok = %v, %v; want 3, true", v, ok)
	}
	if v, ok := sc.Value("fannr_request_seconds_count", L("route", "/fann")); !ok || v != 4 {
		t.Errorf("scraped histogram count = %v, %v; want 4, true", v, ok)
	}
	if v, ok := sc.Value("fannr_request_seconds_bucket", L("route", "/fann"), L("le", "+Inf")); !ok || v != 4 {
		t.Errorf("scraped +Inf bucket = %v, %v; want 4, true", v, ok)
	}
	if v, ok := sc.Value("fannr_pool_inflight", L("engine", "INE")); !ok || v != 2 {
		t.Errorf("scraped gauge func = %v, %v; want 2, true", v, ok)
	}
}

// TestDefBucketsResolveSubMillisecondHits pins the default ladder's low
// end. Semantic cache hits cost single-digit microseconds, so the
// default buckets must separate them from cold sub-millisecond computes
// instead of collapsing everything below 100µs into one bound — and the
// exposition must render the fine bounds in Prometheus float syntax.
func TestDefBucketsResolveSubMillisecondHits(t *testing.T) {
	wantLow := []float64{0.000005, 0.00001, 0.000025, 0.00005, 0.0001}
	for i, b := range wantLow {
		if DefBuckets[i] != b {
			t.Fatalf("DefBuckets[%d] = %v, want %v", i, DefBuckets[i], b)
		}
	}
	r := NewRegistry()
	h := r.Histogram("req_seconds", "", nil, L("route", "/fann"))
	h.Observe(0.000004) // 4µs: exact cache hit
	h.Observe(0.00003)  // 30µs: exact hit on a larger reply
	h.Observe(0.0008)   // 800µs: cold compute
	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		`req_seconds_bucket{le="5e-06",route="/fann"} 1`,
		`req_seconds_bucket{le="2.5e-05",route="/fann"} 1`,
		`req_seconds_bucket{le="5e-05",route="/fann"} 2`,
		`req_seconds_bucket{le="0.001",route="/fann"} 3`,
	} {
		if !strings.Contains(b.String(), line+"\n") {
			t.Errorf("exposition missing %q:\n%s", line, b.String())
		}
	}
}

// TestHandlerServesExposition exercises the /metrics HTTP path.
func TestHandlerServesExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "").Inc()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	sc, err := ParseExposition(rec.Body)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := sc.Value("x_total"); !ok || v != 1 {
		t.Errorf("x_total = %v, %v", v, ok)
	}
}

// TestRegistryHandleIdentity: repeated registration returns the same
// handle, so prefetching at startup and registering lazily agree.
func TestRegistryHandleIdentity(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("c_total", "h", L("k", "v"))
	b := r.Counter("c_total", "h", L("k", "v"))
	if a != b {
		t.Error("same series returned distinct counter handles")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Error("handles do not share state")
	}
	if v, ok := r.Value("c_total", L("k", "v")); !ok || v != 1 {
		t.Errorf("Value = %v, %v; want 1, true", v, ok)
	}
	// Label order must not matter.
	c := r.Counter("c2_total", "", L("a", "1"), L("b", "2"))
	d := r.Counter("c2_total", "", L("b", "2"), L("a", "1"))
	if c != d {
		t.Error("label order changed series identity")
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 2, 3, 8} {
		h.Observe(v)
	}
	// Upper bounds are inclusive (Prometheus "le" semantics): 1 lands in
	// the le=1 bucket, 2 in le=2.
	got := h.bucketCounts()
	want := []int64{2, 2, 1, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bucket %d count %d, want %d (all: %v)", i, got[i], want[i], got)
		}
	}
	if h.Count() != 6 {
		t.Errorf("count %d, want 6", h.Count())
	}
	if math.Abs(h.Sum()-16) > 1e-12 {
		t.Errorf("sum %v, want 16", h.Sum())
	}
}

func TestHistogramRejectsUnsortedBuckets(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unsorted buckets did not panic")
		}
	}()
	NewHistogram([]float64{2, 1})
}

// TestRegistryConcurrentHammer drives registration, updates and
// exposition from RunParallel workers simultaneously; run under -race it
// proves the registry's concurrency contract (the chaos and overload
// tests then rely on scraping a live server mid-hammer).
func TestRegistryConcurrentHammer(t *testing.T) {
	engines := []string{"INE", "PHL", "GTree", "A*"}
	// testing.Benchmark re-runs the body with escalating b.N, so each run
	// gets a fresh registry; the last one is verified against res.N.
	var last *Registry
	res := testing.Benchmark(func(b *testing.B) {
		r := NewRegistry()
		last = r
		var wg sync.WaitGroup
		stop := make(chan struct{})
		// Continuous scraper racing the writers.
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					var sb strings.Builder
					if _, err := r.WriteTo(&sb); err != nil {
						t.Errorf("WriteTo: %v", err)
						return
					}
					if _, err := ParseExposition(strings.NewReader(sb.String())); err != nil {
						t.Errorf("mid-hammer scrape: %v", err)
						return
					}
				}
			}
		}()
		// Fresh-series registrations must keep happening for the whole
		// hammer, not just the first few iterations: the scraper renders
		// concurrently, and a WriteTo that touches f.series after
		// releasing the lock is a concurrent map read/write with these
		// inserts (regression: WriteTo used to snapshot only sigs, not
		// series pointers).
		var fresh atomic.Int64
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				e := engines[i%len(engines)]
				r.Counter("h_evals_total", "", L("engine", e)).Inc()
				r.Histogram("h_seconds", "", nil, L("engine", e)).Observe(float64(i%10) / 1000)
				if i%64 == 0 {
					id := strconv.FormatInt(fresh.Add(1), 10)
					r.Counter("h_fresh_total", "", L("id", id)).Inc()
				}
				i++
			}
		})
		close(stop)
		wg.Wait()
	})
	total := int64(0)
	for _, e := range engines {
		if v, ok := last.Value("h_evals_total", L("engine", e)); ok {
			total += int64(v)
		}
	}
	if total != int64(res.N) {
		t.Errorf("counter total %d, want %d (lost updates)", total, res.N)
	}
	hists := int64(0)
	for _, e := range engines {
		if v, ok := last.Value("h_seconds_count", L("engine", e)); ok {
			hists += int64(v)
		}
	}
	// Histogram counts are exposed via WriteTo, not Value; verify through
	// a scrape instead.
	var sb strings.Builder
	if _, err := last.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	sc, err := ParseExposition(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	hists = 0
	for _, e := range engines {
		if v, ok := sc.Value("h_seconds_count", L("engine", e)); ok {
			hists += int64(v)
		}
	}
	if hists != int64(res.N) {
		t.Errorf("histogram count total %d, want %d (lost observations)", hists, res.N)
	}
}

func TestRequestIDsUnique(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		id := NewRequestID()
		if seen[id] {
			t.Fatalf("duplicate request id %q", id)
		}
		seen[id] = true
	}
}

func TestTraceSpans(t *testing.T) {
	tr := NewTrace("abc-1")
	tr.StartSpan("decode").End()
	tr.StartSpan("compute").End()
	spans := tr.Spans()
	if len(spans) != 2 || spans[0].Name != "decode" || spans[1].Name != "compute" {
		t.Fatalf("spans %+v", spans)
	}
	if tr.Dur("compute") < 0 || tr.Dur("missing") != 0 {
		t.Errorf("Dur lookups wrong: %v %v", tr.Dur("compute"), tr.Dur("missing"))
	}
	var nilTrace *Trace
	nilTrace.StartSpan("x").End() // must not panic
	if nilTrace.Spans() != nil || nilTrace.Dur("x") != 0 {
		t.Error("nil trace not inert")
	}
}
