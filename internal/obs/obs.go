// Package obs is fannr's stdlib-only observability layer: a metrics
// registry with atomic counters, gauges and fixed-bucket latency
// histograms exposed in the Prometheus text format, plus a lightweight
// per-request trace recorder (trace.go) and a tiny exposition parser
// (scrape.go) so tests — and any in-repo tooling — can read the metrics
// back without external dependencies.
//
// The paper's evaluation (§VI) argues in terms of internal work — g_φ
// evaluations saved by pruning, shortest-path computations per query,
// response time per algorithm — and this package is what lets the
// serving stack tell that story from live traffic: algorithms count
// operations through core.Stats, the server flushes them into per-engine
// counters here, and /metrics serves the result.
//
// Design constraints: no third-party modules (the Prometheus client is
// not vendored), hot-path updates are single atomic adds on prefetched
// handles (no map lookups per request), and exposition is deterministic
// (families and series sort lexicographically) so golden tests can pin
// the format.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name=value pair attached to a metric series.
type Label struct {
	Key, Value string
}

// L is shorthand for building a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// metricKind tags a family for the # TYPE line.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one labeled instance inside a family. Exactly one of the
// value sources is set.
type series struct {
	labels []Label
	ctr    *Counter
	fn     func() float64 // CounterFunc / GaugeFunc
	hist   *Histogram
}

// family groups every series of one metric name.
type family struct {
	name   string
	help   string
	kind   metricKind
	series map[string]*series // keyed by canonical label signature
}

// Registry holds metric families and renders them as Prometheus text
// exposition. All methods are safe for concurrent use; handle updates
// (Counter.Add, Histogram.Observe) are lock-free.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// Counter is a monotonically increasing metric. The zero value is ready
// to use, but counters obtained from Registry.Counter are what get
// exported.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (n must be >= 0 for the exposition to
// stay monotone; this is not enforced).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// labelSig is the canonical map key for a label set: labels sorted by
// key, joined escaped. It doubles as the exposition form.
func labelSig(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := make([]Label, len(labels))
	copy(ls, labels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// getFamily returns (creating if absent) the family for name, verifying
// the kind matches a prior registration.
func (r *Registry) getFamily(name, help string, kind metricKind) *family {
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, series: map[string]*series{}}
		r.families[name] = f
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s and %s", name, f.kind, kind))
	}
	return f
}

// Counter returns the counter for name+labels, creating it on first use.
// Repeated calls with the same name and label set return the same handle,
// so callers can prefetch handles at startup and update lock-free.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.getFamily(name, help, kindCounter)
	sig := labelSig(labels)
	if s, ok := f.series[sig]; ok {
		if s.ctr == nil {
			panic(fmt.Sprintf("obs: series %s%s already registered as a func", name, sig))
		}
		return s.ctr
	}
	s := &series{labels: labels, ctr: &Counter{}}
	f.series[sig] = s
	return s.ctr
}

// CounterFunc registers a counter whose value is read from fn at
// exposition time — for monotone values owned elsewhere (e.g. an engine
// pool's created/reused totals).
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	r.registerFunc(name, help, kindCounter, fn, labels)
}

// GaugeFunc registers a gauge whose value is read from fn at exposition
// time — for instantaneous values owned elsewhere (pool in-flight
// counts, breaker states).
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.registerFunc(name, help, kindGauge, fn, labels)
}

func (r *Registry) registerFunc(name, help string, kind metricKind, fn func() float64, labels []Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.getFamily(name, help, kind)
	sig := labelSig(labels)
	if _, dup := f.series[sig]; dup {
		panic(fmt.Sprintf("obs: series %s%s registered twice", name, sig))
	}
	f.series[sig] = &series{labels: labels, fn: fn}
}

// Histogram returns the histogram for name+labels, creating it with the
// given bucket upper bounds on first use (nil buckets = DefBuckets).
// Every series of one family shares the first registration's buckets.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.getFamily(name, help, kindHistogram)
	sig := labelSig(labels)
	if s, ok := f.series[sig]; ok {
		return s.hist
	}
	s := &series{labels: labels, hist: NewHistogram(buckets)}
	f.series[sig] = s
	return s.hist
}

// Value returns the current value of a counter or func series, and
// whether it exists — the programmatic read /meta uses so the registry
// stays the single source of truth for every exported number.
func (r *Registry) Value(name string, labels ...Label) (float64, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		return 0, false
	}
	s, ok := f.series[labelSig(labels)]
	if !ok {
		return 0, false
	}
	switch {
	case s.ctr != nil:
		return float64(s.ctr.Value()), true
	case s.fn != nil:
		return s.fn(), true
	default:
		return 0, false
	}
}

// WriteTo renders the registry in the Prometheus text exposition format:
// families sorted by name, series sorted by label signature, histograms
// expanded into cumulative _bucket/_sum/_count. The output is
// deterministic for a fixed registry state, which the golden test pins.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	// Snapshot family metadata AND series pointers under the lock:
	// Counter/Histogram/registerFunc insert into f.series
	// concurrently, so the render below must never touch those maps
	// after unlocking. Handle updates stay lock-free either way.
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	type row struct {
		name   string
		help   string
		kind   metricKind
		sigs   []string
		series []*series
	}
	rows := make([]row, 0, len(names))
	for _, name := range names {
		f := r.families[name]
		sigs := make([]string, 0, len(f.series))
		for sig := range f.series {
			sigs = append(sigs, sig)
		}
		sort.Strings(sigs)
		ss := make([]*series, len(sigs))
		for i, sig := range sigs {
			ss[i] = f.series[sig]
		}
		rows = append(rows, row{name: f.name, help: f.help, kind: f.kind, sigs: sigs, series: ss})
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, rw := range rows {
		if rw.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", rw.name, rw.help)
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", rw.name, rw.kind)
		for i, sig := range rw.sigs {
			s := rw.series[i]
			switch {
			case s.hist != nil:
				writeHistogram(&b, rw.name, s.labels, s.hist)
			case s.ctr != nil:
				fmt.Fprintf(&b, "%s%s %s\n", rw.name, sig, formatValue(float64(s.ctr.Value())))
			case s.fn != nil:
				fmt.Fprintf(&b, "%s%s %s\n", rw.name, sig, formatValue(s.fn()))
			}
		}
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// writeHistogram expands one histogram series into cumulative buckets.
// Buckets holding an exemplar get an OpenMetrics-style suffix
// (` # {request_id="..."} value timestamp`); buckets without one render
// exactly as before, so exemplar-free registries keep the golden format.
func writeHistogram(b *strings.Builder, name string, labels []Label, h *Histogram) {
	cum := int64(0)
	counts := h.bucketCounts()
	exs := h.bucketExemplars()
	for i, ub := range h.bounds {
		cum += counts[i]
		fmt.Fprintf(b, "%s_bucket%s %d%s\n", name, labelSigWith(labels, "le", formatValue(ub)), cum, exemplarSuffix(exs[i]))
	}
	cum += counts[len(h.bounds)]
	fmt.Fprintf(b, "%s_bucket%s %d%s\n", name, labelSigWith(labels, "le", "+Inf"), cum, exemplarSuffix(exs[len(h.bounds)]))
	fmt.Fprintf(b, "%s_sum%s %s\n", name, labelSig(labels), formatValue(h.Sum()))
	fmt.Fprintf(b, "%s_count%s %d\n", name, labelSig(labels), h.Count())
}

// exemplarSuffix renders an exemplar in the OpenMetrics form, or ""
// when the bucket has none.
func exemplarSuffix(e *Exemplar) string {
	if e == nil {
		return ""
	}
	return fmt.Sprintf(" # {request_id=\"%s\"} %s %s",
		escapeLabel(e.RequestID), formatValue(e.Value),
		strconv.FormatFloat(e.TS, 'f', 3, 64))
}

// labelSigWith renders labels plus one extra pair (the histogram "le").
func labelSigWith(labels []Label, key, value string) string {
	ls := make([]Label, 0, len(labels)+1)
	ls = append(ls, labels...)
	ls = append(ls, Label{Key: key, Value: value})
	return labelSig(ls)
}

// formatValue renders a float the way Prometheus does: integers without
// a decimal point, everything else in shortest round-trip form.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 && !math.IsInf(v, 0) {
		return strconv.FormatInt(int64(v), 10)
	}
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Handler serves the registry as a /metrics endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = r.WriteTo(w)
	})
}
