package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"
)

const (
	setupRepeats = 3    // set-ups per untraced run; setup_s is their median
	bruteSample  = 8    // replies per run checked against enumeration
	replayCount  = 1000 // explain replay: alternately untraced and traced; fewer where a request takes over 2.5 ms
)

// runner carries one benchmark run from phase to phase.
type runner struct {
	e     *env
	w     *workload
	g     *roadGraph
	seed  int64
	secs  int
	trace bool

	segSize int // requests in each segment of the closed phase

	rep    *report
	values map[string]float64 // every metric measured, by name
	srv    *proc
	chk    *checker
	failed map[*request]string // why each failed request failed
	mark   time.Time           // start of the current stage
}

// stage closes the current stage of the run's own time budget.
func (r *runner) stage(name string) {
	r.rep.StageSeconds[name] = time.Since(r.mark).Seconds()
	r.mark = time.Now()
}

// limit cuts short a phase that is more than six times over budget; the
// requests never sent count as failed.
func (r *runner) limit() time.Duration { return 6 * time.Duration(r.secs) * time.Second }

// run performs one benchmark run of w: set-up → warm-up → closed phase →
// verification → (traced: open phase, explain replay, in-process
// ladder).
func run(ctx context.Context, e *env, w *workload, seed int64, secs int, trace bool) (*report, error) {
	r := &runner{
		e: e, w: w, seed: seed, secs: secs, trace: trace,
		rep: &report{
			Workload: w.name, Seed: seed, Seconds: secs, Trace: trace,
			NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
			NoiseCV: noiseCV(20), ClassP50ms: map[string]float64{}, StageSeconds: map[string]float64{},
		},
		values: map[string]float64{}, chk: newChecker(), failed: map[*request]string{}, mark: time.Now(),
	}
	var err error
	if r.g, err = loadGraph(); err != nil {
		return nil, err
	}

	// The closed phase is a whole number of segments, and at least 1 200
	// requests for ten samples beyond its p99.
	n := max(1200, int(math.Round(w.rate*float64(secs))))
	r.segSize = segmentSize(n)
	n -= n % r.segSize
	warm, open, replay := n/10, 0, 0
	if trace {
		open, replay = max(200, int(w.openRate*float64(secs)*0.3)), min(replayCount, 2*int(w.rate))
	}
	all, sha, err := generate(w, seed, warm+n+open+replay, newSamplers(r.g, seed))
	if err != nil {
		return nil, err
	}
	r.rep.SequenceSHA, r.rep.Requests = sha, n
	r.stage("generate")

	defer func() { r.srv.stop() }()
	if err := r.setUps(ctx, all[0].body); err != nil {
		return nil, err
	}
	closedReqs := all[warm : warm+n]
	replies, err := r.closedPhase(ctx, all[:warm], closedReqs)
	if err != nil {
		return nil, err
	}
	r.bruteSample(closedReqs, replies)
	attempted := warm + n
	if trace {
		if err := r.tracedPhases(ctx, closedReqs, all[warm+n:warm+n+open], all[warm+n+open:]); err != nil {
			return nil, err
		}
		attempted += open + replay
		r.values["server.error_rate"] = float64(len(r.failed)) / float64(attempted)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	for _, msg := range r.failed {
		if len(r.rep.Failures) < 5 {
			r.rep.Failures = append(r.rep.Failures, msg)
		}
	}
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	r.rep.Outcome = outcome{
		Correct: len(r.failed) == 0 && len(r.rep.SelfChecks) == 0, Attempted: attempted, Failed: len(r.failed),
		Metrics: map[string]metricValue{},
	}
	for _, d := range defs {
		r.rep.Outcome.Metrics[d.name] = metricValue{Value: r.values[d.name], Unit: d.unit}
	}
	data, _ := json.MarshalIndent(r.rep, "", "  ")
	return r.rep, os.WriteFile(filepath.Join(e.out, "report-"+w.name+".json"), data, 0o644)
}

// setUps sets the server up — three times in an untraced run, keeping the
// last one — and records setup_s as the median.
func (r *runner) setUps(ctx context.Context, probe []byte) error {
	repeats := setupRepeats
	if r.trace {
		repeats = 1 // setup_s is an end-to-end metric; a traced run does not report it
	}
	for i := 0; i < repeats; i++ {
		r.srv.stop()
		var took time.Duration
		var err error
		if r.srv, took, err = r.e.setUp(ctx, r.w, probe); err != nil {
			return err
		}
		r.rep.SetupSeconds = append(r.rep.SetupSeconds, took.Seconds())
	}
	r.values["setup_s"] = median(r.rep.SetupSeconds)
	r.stage("setup")
	return nil
}

// verify checks every reply of a phase cheaply and records the failures.
func (r *runner) verify(reqs []request, ph *phase) []*fannReply {
	replies := make([]*fannReply, len(reqs))
	for i := range reqs {
		var err error
		if ph.status[i] == 0 {
			err = fmt.Errorf("no reply")
		} else {
			replies[i], err = r.chk.check(&reqs[i], ph.status[i], ph.bodies[i])
		}
		if err != nil {
			r.failed[&reqs[i]] = fmt.Sprintf("%s request (%s): %v", r.w.name, reqs[i].class, err)
		}
	}
	return replies
}

// closedPhase warms the server up, runs the timed closed phase between
// two /metrics scrapes, checks every reply, and fills the end-to-end
// metrics from the phase's segments, the cache metrics and the
// self-checks.
func (r *runner) closedPhase(ctx context.Context, warmReqs, reqs []request) ([]*fannReply, error) {
	n, pid := len(reqs), r.srv.cmd.Process.Pid
	warmPh := r.e.drive(ctx, r.srv.url, warmReqs, nil, r.limit(), nil)
	before, err := r.e.scrape(ctx, r.srv.url)
	if err != nil {
		return nil, err
	}
	// The server's CPU time is read as each segment begins, between two
	// requests, and once more when the phase has ended.
	size := r.segSize
	cpu := make([]float64, n/size+1)
	var cpuErr error
	readCPU := func(i int) {
		if i%size == 0 {
			var err error
			if cpu[i/size], err = cpuSeconds(pid); err != nil {
				cpuErr = err
			}
		}
	}
	closed := r.e.drive(ctx, r.srv.url, reqs, nil, r.limit(), readCPU)
	readCPU(n)
	if cpuErr != nil {
		return nil, cpuErr
	}
	after, err := r.e.scrape(ctx, r.srv.url)
	if err != nil {
		return nil, err
	}
	mt, err := r.e.meta(ctx, r.srv.url)
	if err != nil {
		return nil, err
	}
	r.rep.CacheEntries = mt.Cache.Entries
	r.stage("load")

	r.verify(warmReqs, warmPh)
	replies := r.verify(reqs, closed)
	r.stage("check")

	ok := func(i int) bool { return closed.status[i] == 200 }
	lat := sortedMillis(closed.lat, ok)
	shardsPruned, classes := 0, map[string]bool{}
	for i := range reqs {
		classes[reqs[i].class] = true
		if replies[i] != nil {
			shardsPruned += replies[i].ShardsPruned
		}
	}
	for class := range classes {
		r.rep.ClassP50ms[class] = percentile(sortedMillis(closed.lat, func(i int) bool { return ok(i) && reqs[i].class == class }), 50)
	}
	segs := cutSegments(closed.lat, closed.done, ok, cpu, size)
	r.rep.Segments, r.rep.P95Beyond, r.rep.P99Beyond = segs, samplesBeyond(size, 95), samplesBeyond(len(lat), 99)
	r.values["throughput_qps"] = quiet(segs, func(s segment) float64 { return s.QPS }, "higher")
	r.values["latency_p50_ms"] = quiet(segs, func(s segment) float64 { return s.P50ms }, "lower")
	r.values["latency_p95_ms"] = quiet(segs, func(s segment) float64 { return s.P95ms }, "lower")
	r.values["server_cpu_ms_per_query"] = quiet(segs, func(s segment) float64 { return s.CPUms }, "lower")
	r.values["loadgen.closed_p99_ms"] = percentile(lat, 99)

	// Cache traffic across the closed phase, from /metrics deltas
	// (fannr_shard_* is what fannr-shard's coordinator exposes).
	delta := func(names ...string) float64 { return sumSeries(after, names...) - sumSeries(before, names...) }
	hits := delta("fannr_cache_hits_total", "fannr_shard_cache_hits_total")
	misses := delta("fannr_cache_misses_total", "fannr_shard_cache_misses_total")
	const exactSeries = `fannr_cache_hits_total{kind="exact"}`
	exact := after[exactSeries] - before[exactSeries] + delta("fannr_shard_cache_hits_total")
	evictions := delta("fannr_cache_evictions_total") / float64(n)
	r.values["qcache.exact_hits_per_query"] = exact / float64(n)
	r.values["qcache.subsume_hits_per_query"] = (hits - exact) / float64(n)
	r.values["qcache.evictions_per_query"] = evictions
	if hits+misses > 0 {
		r.values["qcache.hit_rate"] = hits / (hits + misses)
	}
	r.values["server.shed_rate"] = delta("fannr_pool_shed_total") / float64(n)
	r.values["server.degraded_rate"] = delta("fannr_degraded_total", "fannr_shard_degraded_total") / float64(n)
	r.values["server.peak_rss_mb"] = peakRSSMB(pid)
	r.values["loadgen.noise_cv"] = r.rep.NoiseCV

	if r.w.selfCheck != nil {
		if msg := r.w.selfCheck(evictions, shardsPruned); msg != "" {
			r.rep.SelfChecks = append(r.rep.SelfChecks, msg)
		}
	}
	return replies, nil
}

// bruteSample recomputes a seeded sample of the closed phase's replies
// by enumeration, one per class where the workload has classes, on all
// cores.
func (r *runner) bruteSample(reqs []request, replies []*fannReply) {
	classes := map[string]bool{}
	for i := range reqs {
		classes[reqs[i].class] = true
	}
	perClass, taken := max(1, bruteSample/len(classes)), map[string]int{}
	var sample []int
	for _, i := range rand.New(rand.NewSource(r.seed)).Perm(len(reqs)) {
		if len(sample) == perClass*len(classes) {
			break
		}
		if class := reqs[i].class; replies[i] != nil && taken[class] < perClass {
			taken[class]++
			sample = append(sample, i)
		}
	}
	inexact := make([]error, len(sample))
	var wg sync.WaitGroup
	for worker := 0; worker < runtime.NumCPU(); worker++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := worker; j < len(sample); j += runtime.NumCPU() {
				answers, _ := replies[sample[j]].answers() // check decoded them once, or an equal reply
				inexact[j] = bruteCheck(r.g, &reqs[sample[j]], answers)
			}
		}()
	}
	wg.Wait()
	for j, err := range inexact {
		if req := &reqs[sample[j]]; err != nil {
			r.failed[req] = fmt.Sprintf("%s request (%s) is not exact: %v", r.w.name, req.class, err)
		}
	}
	r.stage("brute")
}

// tracedPhases is what -trace 1 adds after the closed phase: the open
// phase, the explain replay against the still-running server, and the
// in-process ladder. It writes trace-<workload>.json.
func (r *runner) tracedPhases(ctx context.Context, closedReqs, openReqs, replayReqs []request) error {
	due := poissonDue(rand.New(rand.NewSource(r.seed)), len(openReqs), r.w.openRate)
	openPh := r.e.drive(ctx, r.srv.url, openReqs, due, r.limit(), nil)
	r.verify(openReqs, openPh)
	openOK := func(i int) bool { return openPh.status[i] == 200 }
	openLat := sortedMillis(openPh.lat, openOK)
	r.values["loadgen.open_rate_qps"] = float64(len(openLat)) / openPh.wall.Seconds()
	r.values["loadgen.open_p50_ms"] = percentile(openLat, 50)
	r.values["loadgen.open_p99_ms"] = percentile(openLat, 99)
	r.values["loadgen.lateness_p99_ms"] = percentile(sortedMillis(openPh.late, openOK), 99)

	replayPh, explainSpans := r.e.explainReplay(ctx, r.srv.url, replayReqs, r.values)
	r.verify(replayReqs, replayPh)
	r.stage("open+replay")

	rec := newRecorder()
	rungs, err := ladder(ctx, r.g, r.seed, closedReqs, r.e.tmp, rec)
	if err != nil {
		return fmt.Errorf("in-process ladder: %w", err)
	}
	for k, v := range rungs {
		r.values[k] = v
	}
	if r.w.sharded && rungs["shard.pruned_per_query"] == 0 {
		r.rep.SelfChecks = append(r.rep.SelfChecks, "the in-process coordinator pruned no shard on shard4's requests")
	}
	r.stage("ladder")
	data, _ := json.Marshal(map[string][]span{"explain": explainSpans, "ladder": rec.spans})
	return os.WriteFile(filepath.Join(r.e.out, "trace-"+r.w.name+".json"), data, 0o644)
}

// stageMetric maps the server's span names to the metric their self time
// feeds; every algo:* span feeds core.algo_self_us.
var stageMetric = map[string]string{
	"decode": "server.decode_self_us", "cache": "qcache.lookup_self_us", "coalesce": "qcache.coalesce_self_us",
	"admit": "core.admit_self_us", "pin": "lifecycle.pin_self_us", "compute": "server.compute_self_us",
}

// explainReplay sends reqs one at a time on one connection, every second
// one with ?explain=1, and fills the server-stage metrics: per request,
// each stage's self time is its span minus what its children cover, and
// each metric is the median over the traced requests (a stage a request
// skipped counts as 0, so the stages still add up to the handler).
func (e *env) explainReplay(ctx context.Context, url string, reqs []request, values map[string]float64) (*phase, []span) {
	ph := newPhase(len(reqs))
	samples := map[string][]float64{}
	var all []span
	var plain, traced []float64
	for i := range reqs {
		if ctx.Err() != nil {
			break
		}
		query := ""
		if i%2 == 1 {
			query = "?explain=1"
		}
		start := time.Now()
		status, body, err := e.post(ctx, url+"/fann"+query, reqs[i].body)
		rtt := micros(time.Since(start))
		if err != nil {
			continue
		}
		ph.status[i], ph.bodies[i] = status, body
		if status != 200 {
			continue
		}
		if query == "" {
			plain = append(plain, rtt)
			continue
		}
		traced = append(traced, rtt)
		var rep fannReply
		if json.Unmarshal(body, &rep) != nil || rep.Explain == nil {
			ph.status[i] = 0 // a traced reply without its trace is a failure
			continue
		}
		spans := rep.Explain.flatten(i)
		self := selfTimes(spans)
		stage := map[string]float64{}
		for j, s := range spans[1:] {
			metric := stageMetric[s.Name]
			if strings.HasPrefix(s.Name, "algo:") {
				metric = "core.algo_self_us"
			}
			stage[metric] += float64(self[j+1])
		}
		for _, metric := range stageMetric {
			samples[metric] = append(samples[metric], stage[metric])
		}
		handler := float64(spans[0].End)
		samples["core.algo_self_us"] = append(samples["core.algo_self_us"], stage["core.algo_self_us"])
		samples["server.handler_us"] = append(samples["server.handler_us"], handler)
		samples["server.unattributed_us"] = append(samples["server.unattributed_us"], float64(self[0]))
		samples["server.transport_us"] = append(samples["server.transport_us"], rtt-handler)
		if handler > 0 {
			samples["obs.span_coverage"] = append(samples["obs.span_coverage"], 1-float64(self[0])/handler)
		}
		all = append(all, spans...)
	}
	for metric, xs := range samples {
		values[metric] = median(xs)
	}
	if len(plain) > 0 && len(traced) > 0 {
		values["obs.explain_overhead_ratio"] = median(traced) / median(plain)
	}
	return ph, all
}
