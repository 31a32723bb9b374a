// Command bench is fannr's one repeatable benchmark: it builds the real
// fannr-index, fannr-server and fannr-shard binaries, drives them over
// loopback HTTP with a seeded workload, checks the answers, and prints
// every metric by name. See README.md.
//
//	go run -C bench fannr/bench -workload hot_ier -seed 1            # end-to-end metrics
//	go run -C bench fannr/bench -workload hot_ier -seed 1 -trace 1   # per-layer metrics
//	go run -C bench fannr/bench -aa -seed 1                          # A/A check of every workload
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"sort"
	"syscall"
)

// metricDef is one reported metric. BENCHMARK.json at the repository
// root lists the same names, units, directions and bounds
// (TestBenchmarkJSONMatchesTables).
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only: tolerated worsening, as a share
}

var endToEnd = []metricDef{
	{"throughput_qps", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p95_ms", "ms", "lower", 0.25},
	{"server_cpu_ms_per_query", "ms", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

func layerMetrics(unit, better string, names ...string) []metricDef {
	out := make([]metricDef, len(names))
	for i, n := range names {
		out[i] = metricDef{name: n, unit: unit, better: better}
	}
	return out
}

var perLayer = func() []metricDef {
	var classes []string
	for _, c := range mixClasses {
		classes = append(classes, "core.dispatch_us."+c.name)
	}
	return concat(
		layerMetrics("s", "lower", "graph.generate_s", "phl.build_s", "phl.save_s", "gtree.build_s", "shard.plan_build_s"),
		layerMetrics("ms", "lower", "phl.load_heap_ms", "phl.load_mmap_ms", "gtree.load_mmap_ms"),
		layerMetrics("bytes", "lower", "phl.index_bytes", "gtree.index_bytes"),
		layerMetrics("ns", "lower", "phl.dist_ns", "phl.distbatch_ns_per_target"),
		layerMetrics("us", "lower", "gtree.dist_us", "sp.dijkstra_p2p_us", "rtree.build_ptree_us",
			"core.gphi_dist_us.ine", "core.gphi_dist_us.phl", "core.gphi_dist_us.ier-phl", "core.gphi_dist_us.gtree"),
		layerMetrics("us", "lower", classes...),
		layerMetrics("count", "lower", "core.gphi_evals_per_query", "core.heap_pops_per_query",
			"core.index_visits_per_query", "core.settled_per_query"),
		layerMetrics("ratio", "higher", "core.pruned_ratio"),
		layerMetrics("ns", "lower", "qcache.fingerprint_ns_per_id", "qcache.get_result_ns", "qcache.put_result_ns", "qcache.put_list_ns"),
		layerMetrics("ratio", "higher", "qcache.hit_rate"),
		layerMetrics("1/query", "higher", "qcache.exact_hits_per_query", "qcache.subsume_hits_per_query"),
		layerMetrics("1/query", "lower", "qcache.evictions_per_query"),
		layerMetrics("us", "lower", "server.handler_us", "server.decode_self_us", "qcache.lookup_self_us",
			"qcache.coalesce_self_us", "core.admit_self_us", "lifecycle.pin_self_us", "server.compute_self_us",
			"core.algo_self_us", "server.unattributed_us", "server.transport_us"),
		layerMetrics("ratio", "higher", "obs.span_coverage"),
		layerMetrics("ratio", "lower", "obs.explain_overhead_ratio", "server.shed_rate", "server.degraded_rate", "server.error_rate"),
		layerMetrics("MB", "lower", "server.peak_rss_mb"),
		layerMetrics("us", "lower", "shard.split_us", "shard.bound_us", "shard.codec_us", "shard.host_execute_us",
			"shard.coord_execute_us", "shard.coord_self_us"),
		layerMetrics("count", "lower", "shard.contacted_per_query"),
		layerMetrics("count", "higher", "shard.pruned_per_query"),
		layerMetrics("ratio", "lower", "shard.load_imbalance"),
		layerMetrics("1/s", "higher", "loadgen.open_rate_qps"),
		layerMetrics("ms", "lower", "loadgen.closed_p99_ms", "loadgen.open_p50_ms", "loadgen.open_p99_ms", "loadgen.lateness_p99_ms"),
		layerMetrics("ratio", "lower", "loadgen.noise_cv"),
	)
}()

func concat(groups ...[]metricDef) []metricDef {
	var out []metricDef
	for _, g := range groups {
		out = append(out, g...)
	}
	return out
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the one JSON object a run ends with on standard output.
type outcome struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report is what a run leaves in bench/out/report-<workload>.json: the
// outcome plus what a reader needs to judge it.
type report struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  int     `json:"seconds"`
	Trace    bool    `json:"trace"`
	Outcome  outcome `json:"outcome"`

	NProc        int                `json:"nproc"`
	GOMAXPROCS   int                `json:"gomaxprocs"`
	GoVersion    string             `json:"go_version"`
	NoiseCV      float64            `json:"noise_cv"`
	SequenceSHA  string             `json:"sequence_sha256"`
	Requests     int                `json:"closed_requests"`
	Segments     []segment          `json:"segments"`                   // of the closed phase, in order
	P95Beyond    int                `json:"samples_beyond_segment_p95"` // in each segment
	P99Beyond    int                `json:"samples_beyond_p99"`         // in the whole closed phase
	CacheEntries int64              `json:"cache_entries"`              // /meta after the closed phase; capacity is 4096
	SetupSeconds []float64          `json:"setup_seconds"`
	StageSeconds map[string]float64 `json:"stage_seconds"` // where the run's own time went
	ClassP50ms   map[string]float64 `json:"class_p50_ms"`
	Failures     []string           `json:"failures,omitempty"`
	SelfChecks   []string           `json:"self_checks_failed,omitempty"`
}

func main() { os.Exit(realMain()) }

func realMain() int {
	name := flag.String("workload", "", "workload to run: hot_ier, cache_zipf, algo_mix or shard4")
	seed := flag.Int64("seed", 1, "seed of the generated request sequence")
	secs := flag.Int("seconds", 10, "size the closed phase to about this many seconds on the reference host")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
	aa := flag.Bool("aa", false, "run every workload twice with the same seed and compare the pairs against the bounds")
	flag.Parse()
	if *secs < 1 || (!*aa && *name == "") {
		flag.Usage()
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	e, err := newEnv()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer e.close() // after every child has been stopped by run's own defers
	if err := e.build(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}

	if *aa {
		return runAA(ctx, e, *seed, *secs)
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	rep, err := run(ctx, e, w, *seed, *secs, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	printReport(os.Stderr, rep)
	line, _ := json.Marshal(rep.Outcome)
	fmt.Println(string(line))
	return 0
}

func printReport(f *os.File, rep *report) {
	fmt.Fprintf(f, "%s seed %d: %d attempted, %d failed, correct %v (nproc %d, GOMAXPROCS %d, %s, noise cv %.3f)\n",
		rep.Workload, rep.Seed, rep.Outcome.Attempted, rep.Outcome.Failed, rep.Outcome.Correct,
		rep.NProc, rep.GOMAXPROCS, rep.GoVersion, rep.NoiseCV)
	fmt.Fprintf(f, "  request sequence sha256 %s, %d closed-phase requests in %d segments, %d samples beyond a segment's p95, %d beyond the phase's p99\n",
		rep.SequenceSHA, rep.Requests, len(rep.Segments), rep.P95Beyond, rep.P99Beyond)
	fmt.Fprintf(f, "  stage seconds %v, class p50 ms %v, %d cache entries\n", rep.StageSeconds, rep.ClassP50ms, rep.CacheEntries)
	names := make([]string, 0, len(rep.Outcome.Metrics))
	for n := range rep.Outcome.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(f, "  %-36s %14.4f %s\n", n, rep.Outcome.Metrics[n].Value, rep.Outcome.Metrics[n].Unit)
	}
	for _, msg := range append(rep.SelfChecks, rep.Failures...) {
		fmt.Fprintln(f, "  FAILED:", msg)
	}
}

// runAA runs every workload twice with the same seed on the same build,
// untraced and traced, and fails if an end-to-end metric of a pair
// differs by more than its bound or a count metric does not repeat
// exactly.
func runAA(ctx context.Context, e *env, seed int64, secs int) int {
	bad := 0
	for i := range workloads {
		w := &workloads[i]
		for _, trace := range []bool{false, true} {
			var pair [2]*report
			for j := range pair {
				rep, err := run(ctx, e, w, seed, secs, trace)
				if err != nil {
					fmt.Fprintln(os.Stderr, "bench:", err)
					return 1
				}
				printReport(os.Stdout, rep)
				if !rep.Outcome.Correct {
					bad++
				}
				pair[j] = rep
			}
			if pair[0].SequenceSHA != pair[1].SequenceSHA {
				fmt.Printf("A/A %s: request sequences differ for one seed\n", w.name)
				bad++
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			for _, d := range defs {
				a, b := pair[0].Outcome.Metrics[d.name].Value, pair[1].Outcome.Metrics[d.name].Value
				switch {
				case !trace:
					diff := math.Abs(a-b) / math.Max(math.Min(a, b), 1e-12)
					verdict := "ok"
					if diff > d.bound {
						verdict = "EXCEEDS BOUND"
						bad++
					}
					fmt.Printf("A/A %-10s %-26s %12.4f %12.4f  %+6.1f%% (bound %.0f%%) %s\n", w.name, d.name, a, b, 100*(b-a)/a, 100*d.bound, verdict)
				case d.unit == "count" || d.unit == "bytes":
					if a != b {
						fmt.Printf("A/A %-10s %-26s %v then %v: a count must repeat exactly\n", w.name, d.name, a, b)
						bad++
					}
				}
			}
		}
	}
	if bad > 0 {
		fmt.Printf("A/A: %d problems\n", bad)
		return 1
	}
	fmt.Println("A/A: every pair within its bound, every count repeated")
	return 0
}
