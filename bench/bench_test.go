package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {100, 10}, {10, 1}, {1, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	// The ten-samples-beyond rule: p99 needs more than 1 000 samples.
	for _, c := range []struct{ n, want int }{{3000, 30}, {1100, 11}, {1000, 10}, {999, 9}, {100, 1}} {
		if got := samplesBeyond(c.n, 99); got != c.want {
			t.Errorf("samplesBeyond(%d, 99) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestSegmentsAndQuietShare(t *testing.T) {
	// Whole blocks of 100, at least two, at most 40 segments.
	if got := []int{segmentSize(1200), segmentSize(4000), segmentSize(8000), segmentSize(13_500), segmentSize(50_000)}; !reflect.DeepEqual(got, []int{200, 200, 200, 400, 1300}) {
		t.Errorf("segment sizes %v, want [200 200 200 400 1300]", got)
	}
	// 4 000 requests in 20 segments, one reply per millisecond, each taking
	// 1 ms of which the server is on a core for half; segments 5 to 19 are
	// disturbed: replies 3 ms apart, taking 3 ms.
	n, segs := 4000, 20
	lat, done, cpu := make([]time.Duration, n), make([]time.Duration, n), make([]float64, segs+1)
	var now time.Duration
	for i := range lat {
		lat[i] = time.Millisecond
		if i >= 1000 {
			lat[i] = 3 * time.Millisecond
		}
		now += lat[i]
		done[i] = now
		if (i+1)%200 == 0 {
			cpu[(i+1)/200] = cpu[(i+1)/200-1] + 200*0.0005
		}
	}
	lat[3], lat[7] = 0, 0 // two failed requests
	all := cutSegments(lat, done, func(i int) bool { return i != 3 && i != 7 }, cpu, 200)
	if len(all) != segs {
		t.Fatalf("%d segments, want %d", len(all), segs)
	}
	if s := all[0]; s.QPS != 990 || s.P50ms != 1 || s.P95ms != 1 || math.Abs(s.CPUms-0.5) > 1e-9 {
		t.Errorf("first segment %+v, want 990/s (198 of 200 answered in 0.2 s), 1 ms, 1 ms, 0.5 ms", s)
	}
	if s := all[19]; math.Abs(s.QPS-1000.0/3) > 1e-6 || s.P50ms != 3 {
		t.Errorf("last segment %+v, want 333/s and 3 ms", s)
	}
	// Three quarters of the run were disturbed, and the quiet tenth — the
	// second best segment of twenty — does not show it.
	if got := quiet(all, func(s segment) float64 { return s.QPS }, "higher"); got != 1000 {
		t.Errorf("quiet throughput %v/s, want 1000/s", got)
	}
	if got := quiet(all, func(s segment) float64 { return s.P50ms }, "lower"); got != 1 {
		t.Errorf("quiet p50 %v ms, want 1 ms", got)
	}
}

func TestCPUSecondsCountsThisProcess(t *testing.T) {
	before, err := cpuSeconds(os.Getpid())
	if err != nil {
		t.Skip("no schedstat on this host:", err)
	}
	for start := time.Now(); time.Since(start) < 30*time.Millisecond; {
	}
	after, err := cpuSeconds(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if spent := after - before; spent < 0.02 || spent > 1 {
		t.Errorf("30 ms of spinning read as %v s of CPU", spent)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},      // nested child below
		{Name: "a1", Start: 15, End: 25, Parent: 1},     //
		{Name: "b", Start: 30, End: 60, Parent: 0},      // overlaps a by 10
		{Name: "c", Start: 90, End: 120, Parent: 0},     // runs past the root
		{Name: "inside", Start: 35, End: 38, Parent: 0}, // wholly covered by a and b
	}
	want := []int64{
		100 - (30 + 20 + 10), // a covers 10–40, b adds 40–60, c is clipped to 90–100
		30 - 10,
		10,
		30,
		30,
		3,
	}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

// fakeSampler stands in for fannr.WorkloadGenerator: seeded draws of
// the requested sizes.
type fakeSampler struct{ rng *rand.Rand }

func (f *fakeSampler) draw(n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(f.rng.Intn(16865))
	}
	return out
}
func (f *fakeSampler) UniformP(d float64) []int32             { return f.draw(int(d*16865) + 1) }
func (f *fakeSampler) UniformQ(a float64, m int) []int32      { return f.draw(m) }
func (f *fakeSampler) ClusteredQ(a float64, m, c int) []int32 { return f.draw(m) }

func fakeSamplers(seed int64) func(i int) sampler {
	return func(i int) sampler { return &fakeSampler{rand.New(rand.NewSource(seed*10_000 + int64(i)))} }
}

func TestSequenceIsDeterminedBySeed(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		a, shaA, err := generate(w, 7, 600, fakeSamplers(7))
		if err != nil {
			t.Fatal(err)
		}
		_, shaB, _ := generate(w, 7, 600, fakeSamplers(7))
		if shaA != shaB {
			t.Errorf("%s: same seed, different sequence hash", w.name)
		}
		_, shaC, _ := generate(w, 8, 600, fakeSamplers(8))
		if shaA == shaC {
			t.Errorf("%s: different seeds, same sequence hash", w.name)
		}
		// A longer sequence extends a shorter one.
		long, _, _ := generate(w, 7, 900, fakeSamplers(7))
		for j := range a {
			if string(a[j].body) != string(long[j].body) {
				t.Fatalf("%s: request %d changes with the sequence length", w.name, j)
			}
		}
		var body fannRequest
		if err := json.Unmarshal(a[0].body, &body); err != nil || len(body.P) == 0 || len(body.Q) == 0 || body.Engine == "" {
			t.Errorf("%s: first body %.80s… does not decode to a query (%v)", w.name, a[0].body, err)
		}
	}
}

func TestAlgoMixSharesAreExact(t *testing.T) {
	w, _ := findWorkload("algo_mix")
	reqs, _, err := generate(w, 3, 1000, fakeSamplers(3))
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, r := range reqs {
		counts[r.class]++
	}
	total := 0
	for _, c := range mixClasses {
		total += c.share
		if counts[c.name] != 10*c.share {
			t.Errorf("class %s: %d of 1000 requests, want %d", c.name, counts[c.name], 10*c.share)
		}
	}
	if total != 100 {
		t.Errorf("class shares sum to %d, want 100", total)
	}
}

func TestZipfFavoursLowBases(t *testing.T) {
	w, _ := findWorkload("cache_zipf")
	reqs, _, err := generate(w, 5, 20000, fakeSamplers(5))
	if err != nil {
		t.Fatal(err)
	}
	perBase := make([]int, zipfBases)
	tuples := map[int]bool{}
	for _, r := range reqs {
		perBase[r.tuple/20]++ // 5 φ × 2 aggregates × 2 k per base
		tuples[r.tuple] = true
	}
	if perBase[0] < 2*perBase[3] || perBase[3] < perBase[zipfBases-1] {
		t.Errorf("requests per base %v are not Zipf-skewed", perBase)
	}
	if len(tuples) > zipfBases*20 {
		t.Errorf("%d distinct queries, at most %d possible", len(tuples), zipfBases*20)
	}
	// Same tuple, same body: that is what makes a repeat a cache hit.
	first := map[int]string{}
	for _, r := range reqs {
		if b, ok := first[r.tuple]; ok && b != string(r.body) {
			t.Fatalf("tuple %d has two different bodies", r.tuple)
		}
		first[r.tuple] = string(r.body)
	}
}

func readFixture(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestParseMetaFixtures(t *testing.T) {
	m, err := parseMeta(readFixture(t, "meta_server.json"))
	if err != nil {
		t.Fatal(err)
	}
	if m.Nodes != 16865 || !m.Cache.Enabled || !m.Cache.Coalescing || m.Cache.Batching ||
		m.Cache.Entries != 5 || m.Cache.Hits != 2 || m.Cache.Misses != 5 || m.Cache.Evictions != 0 {
		t.Errorf("fannr-server /meta parsed as %+v", m)
	}
	if !reflect.DeepEqual(m.Engines, []string{"A*", "GTree", "IER-A*", "IER-PHL", "INE", "PHL"}) {
		t.Errorf("engines = %v", m.Engines)
	}
	s, err := parseMeta(readFixture(t, "meta_shard.json"))
	if err != nil {
		t.Fatal(err)
	}
	if s.Nodes != 16865 || s.Shards != 4 || s.Cache.Enabled {
		t.Errorf("fannr-shard /meta parsed as %+v", s)
	}
	if _, err := parseMeta([]byte(`{"error":"nope"}`)); err == nil {
		t.Error("a /meta without nodes must not parse")
	}
}

func TestExplainFixture(t *testing.T) {
	c := newChecker()
	r := &request{fannRequest: fannRequest{P: []int32{1, 5, 9, 200, 300, 4000, 5000, 12000}, Q: []int32{10, 20, 30, 40, 50, 60}, Phi: 0.5, K: 2}, tuple: -1}
	rep, err := c.check(r, 200, readFixture(t, "explain_reply.json"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Explain == nil || rep.Explain.DurMicros != 548 {
		t.Fatalf("explain report parsed as %+v", rep.Explain)
	}
	spans := rep.Explain.flatten(3)
	var names []string
	for _, s := range spans {
		names = append(names, s.Name)
		if s.Request != 3 {
			t.Errorf("span %s carries request %d, want 3", s.Name, s.Request)
		}
	}
	if want := "handler decode cache coalesce admit pin compute algo:kierknn"; strings.Join(names, " ") != want {
		t.Errorf("span names %v, want %s", names, want)
	}
	self := selfTimes(spans)
	byName := map[string]int64{}
	for i, s := range spans {
		byName[s.Name] = self[i]
	}
	want := map[string]int64{
		"handler": 548 - 84 - 1 - 444, "decode": 84, "cache": 1, "coalesce": 444 - 315 - 110,
		"admit": 315 - 1, "pin": 1, "compute": 110 - 96, "algo:kierknn": 96,
	}
	if !reflect.DeepEqual(byName, want) {
		t.Errorf("self times %v, want %v", byName, want)
	}
}

func TestParseMetricsFixture(t *testing.T) {
	m := parseMetrics(readFixture(t, "metrics.txt"))
	if got := m[`fannr_cache_hits_total{kind="exact"}`]; got != 2 {
		t.Errorf("exact hits = %v, want 2", got)
	}
	if got := sumSeries(m, "fannr_cache_hits_total"); got != 4 {
		t.Errorf("all hits = %v, want 4", got)
	}
	if got := sumSeries(m, "fannr_cache_hits_total", "fannr_cache_misses_total"); got != 9 {
		t.Errorf("lookups = %v, want 9", got)
	}
	if got, ok := m["fannr_cache_evictions_total"]; !ok || got != 0 {
		t.Errorf("evictions = %v (present %v), want 0", got, ok)
	}
	buckets := 0
	for series, v := range m {
		if strings.HasPrefix(series, "fannr_request_seconds_bucket") {
			buckets++
			if strings.Contains(series, "#") || v != float64(int(v)) {
				t.Errorf("bucket line with an exemplar parsed as %q = %v", series, v)
			}
		}
	}
	if buckets == 0 {
		t.Error("no histogram bucket parsed from the fixture")
	}
}

func TestCheckerRejectsWrongReplies(t *testing.T) {
	r := &request{fannRequest: fannRequest{P: []int32{1, 2, 3}, Q: []int32{7, 8, 9, 10}, Phi: 0.5, K: 2}, tuple: 4}
	good := `{"answers":[{"p":1,"dist":1.5,"subset":[7,8]},{"p":3,"dist":2.5,"subset":[9,8]}],"micros":3,"engine":"PHL"}`
	for name, c := range map[string]struct {
		status int
		body   string
	}{
		"not 200":         {503, `{"error":"overloaded","code":"overloaded"}`},
		"degraded":        {200, strings.Replace(good, `"engine"`, `"degraded":true,"engine"`, 1)},
		"one answer":      {200, `{"answers":[{"p":1,"dist":1.5,"subset":[7,8]}]}`},
		"p outside P":     {200, strings.Replace(good, `"p":3`, `"p":4`, 1)},
		"short subset":    {200, strings.Replace(good, `[9,8]`, `[9]`, 1)},
		"descending dist": {200, strings.Replace(good, `2.5`, `0.5`, 1)},
		"not JSON":        {200, `<html>`},
	} {
		if _, err := newChecker().check(r, c.status, []byte(c.body)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	c := newChecker()
	if _, err := c.check(r, 200, []byte(good)); err != nil {
		t.Fatalf("good reply rejected: %v", err)
	}
	if _, err := c.check(r, 200, []byte(strings.Replace(good, `"micros":3`, `"micros":9`, 1))); err != nil {
		t.Errorf("repeat differing only in micros rejected: %v", err)
	}
	if _, err := c.check(r, 200, []byte(strings.Replace(good, `1.5`, `1.25`, 1))); err == nil {
		t.Error("repeat of a tuple with another answer accepted")
	}
}

func TestPoissonDue(t *testing.T) {
	due := poissonDue(rand.New(rand.NewSource(1)), 20000, 400)
	for i := 1; i < len(due); i++ {
		if due[i] < due[i-1] {
			t.Fatal("due times must ascend")
		}
	}
	if rate := float64(len(due)) / due[len(due)-1].Seconds(); rate < 380 || rate > 420 {
		t.Errorf("arrival rate %v/s, want 400/s", rate)
	}
}

// benchmarkJSON is the contract file at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.Paths, []string{"bench"}) {
		t.Errorf("paths = %v, want [bench]", b.Paths)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in workloads.go", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: %q (why of %d characters), want %q with a why of 1–200", i, w.Name, len(w.Why), workloads[i].name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in main.go", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		if d := endToEnd[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end metric %d: %+v, want %+v", i, m, d)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in main.go", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if d := perLayer[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer metric %d: %+v, want %+v", i, m, d)
		}
	}
}
