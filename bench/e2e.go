package main

// The end-to-end half: child processes, loopback HTTP, wire JSON. It
// imports nothing from the repository; the flags, /fann, /readyz, /meta,
// /metrics and ?explain=1 are the surface later refactors must keep.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// clients is the number of keep-alive connections driving the server.
// One: the reference host has two cores, so the load generator and the
// one request in flight each have a core, and a latency is the time the
// server takes, not the time the scheduler takes to hand out cores. With
// a third process busy on the host half of the time, ten runs of the same
// hot_ier sequence spread (Q3 − Q1) 18 % of their median p50 over two
// connections and 5 % over one.
const clients = 1

// env is one benchmark process's working state: where the repository
// is, where binaries, index files and child logs go.
type env struct {
	root string // repository root
	out  string // bench/out: logs, traces, reports (kept)
	tmp  string // bench/out/run-*: binaries and index files (removed)
	http *http.Client
}

func newEnv() (*env, error) {
	root := ""
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "fannr-server", "main.go")); err == nil {
			root = dir
			break
		}
	}
	if root == "" {
		return nil, errors.New("run from the repository root or from bench/: cmd/fannr-server not found")
	}
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	out := filepath.Join(root, "bench", "out")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(out, "run-")
	if err != nil {
		return nil, err
	}
	return &env{
		root: root, out: out, tmp: tmp,
		http: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients, DisableCompression: true}},
	}, nil
}

func (e *env) close() {
	e.http.CloseIdleConnections()
	os.RemoveAll(e.tmp)
}

// build compiles the three binaries under test into the temp dir.
func (e *env) build(ctx context.Context) error {
	cmd := exec.CommandContext(ctx, "go", "build", "-o", e.tmp+string(os.PathSeparator),
		"./cmd/fannr-index", "./cmd/fannr-server", "./cmd/fannr-shard")
	cmd.Dir = e.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build: %w\n%s", err, out)
	}
	return nil
}

// proc is a running server under test.
type proc struct {
	cmd    *exec.Cmd
	url    string
	log    *os.File
	exited chan struct{} // closed once Wait returns
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

func (e *env) logFile(name string) (*os.File, error) {
	return os.OpenFile(filepath.Join(e.out, name), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}

// runTool runs a build-time tool (fannr-index) to completion.
func (e *env) runTool(ctx context.Context, log *os.File, name string, args ...string) error {
	cmd := exec.CommandContext(ctx, filepath.Join(e.tmp, name), args...)
	cmd.Dir = e.tmp
	cmd.Stdout, cmd.Stderr = log, log
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("%s %s: %w (see %s)", name, strings.Join(args, " "), err, log.Name())
	}
	return nil
}

func (e *env) start(log *os.File, name string, args ...string) (*proc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(filepath.Join(e.tmp, name), append([]string{"-addr", addr}, args...)...)
	cmd.Dir = e.tmp
	cmd.Stdout, cmd.Stderr = log, log
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &proc{cmd: cmd, url: "http://" + addr, log: log, exited: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(p.exited)
	}()
	return p, nil
}

// stop sends SIGTERM and waits for the child to end; a child that
// ignores it for 10 s is killed. Safe to call twice.
func (p *proc) stop() {
	if p == nil {
		return
	}
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.exited:
	case <-time.After(10 * time.Second):
		p.cmd.Process.Kill()
		<-p.exited
	}
}

// waitReady polls /readyz until it answers 200. A child that exits, or
// does not become ready in time, fails the run.
func (e *env) waitReady(ctx context.Context, p *proc, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case <-p.exited:
			return fmt.Errorf("server exited before becoming ready (see %s)", p.log.Name())
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		if status, _, err := e.get(ctx, p.url+"/readyz"); err == nil && status == http.StatusOK {
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("server not ready after %v (see %s)", timeout, p.log.Name())
}

func (e *env) get(ctx context.Context, url string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, err
	}
	return e.do(req)
}

func (e *env) post(ctx context.Context, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return e.do(req)
}

func (e *env) do(req *http.Request) (int, []byte, error) {
	resp, err := e.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// setUp goes from nothing to a server that has answered one query, the
// way an operator would: build the index files with fannr-index, start
// fannr-server on them with its default flags (or start fannr-shard,
// which builds in-process), wait for /readyz, send probe. The returned
// duration is the setup_s metric; it excludes go build.
func (e *env) setUp(ctx context.Context, w *workload, probe []byte) (*proc, time.Duration, error) {
	log, err := e.logFile(w.name + ".log")
	if err != nil {
		return nil, 0, err
	}
	defer log.Close() // the children hold their own descriptors
	start := time.Now()
	var p *proc
	if w.sharded {
		// Fan-out 2, not the default 4: with 4 ≥ S every shard is
		// contacted in one wave and no bound can prune.
		p, err = e.start(log, "fannr-shard", "-mode", "all", "-shards", "4", "-max-fanout", "2", "-engines", "PHL")
	} else {
		for _, kind := range []string{"phl", "gtree"} {
			if err := e.runTool(ctx, log, "fannr-index", "-kind", kind, "-out", "nw."+kind); err != nil {
				return nil, 0, err
			}
		}
		p, err = e.start(log, "fannr-server", "-engines", "PHL,GTree",
			"-phl-index", "nw.phl", "-gtree-index", "nw.gtree", "-mmap", "on")
	}
	if err != nil {
		return nil, 0, err
	}
	if err := e.waitReady(ctx, p, 60*time.Second); err != nil {
		p.stop()
		return nil, 0, err
	}
	status, body, err := e.post(ctx, p.url+"/fann", probe)
	if err != nil || status != http.StatusOK {
		p.stop()
		return nil, 0, fmt.Errorf("first query: status %d, err %v, body %.200s", status, err, body)
	}
	return p, time.Since(start), nil
}

// phase is what one load phase observed, indexed by request.
type phase struct {
	lat    []time.Duration // round trip; open phase: from the due time
	done   []time.Duration // completion offset from the phase start
	late   []time.Duration // open phase: actual send − due time
	status []int           // 0: transport error or never sent
	bodies [][]byte
	wall   time.Duration
}

func newPhase(n int) *phase {
	return &phase{
		lat: make([]time.Duration, n), done: make([]time.Duration, n), late: make([]time.Duration, n),
		status: make([]int, n), bodies: make([][]byte, n),
	}
}

// drive sends reqs in index order over `clients` connections. With due
// nil it is a closed loop: each client sends its next request when the
// previous reply arrives. Otherwise each request waits for its absolute
// due offset and its latency counts from then, so a stall shows as
// delay on the requests behind it. Requests not sent by limit stay
// status 0 and count as failed. before, if not nil, runs ahead of each
// request, outside its latency.
func (e *env) drive(ctx context.Context, url string, reqs []request, due []time.Duration, limit time.Duration, before func(i int)) *phase {
	ph := newPhase(len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) || ctx.Err() != nil || time.Since(start) > limit {
					return
				}
				if before != nil {
					before(i)
				}
				sent := time.Now()
				if due != nil {
					if wait := due[i] - sent.Sub(start); wait > 0 {
						time.Sleep(wait)
					}
					ph.late[i] = time.Since(start) - due[i]
					sent = start.Add(due[i])
				}
				status, body, err := e.post(ctx, url+"/fann", reqs[i].body)
				end := time.Now()
				if err == nil {
					ph.status[i], ph.bodies[i] = status, body
				}
				ph.lat[i], ph.done[i] = end.Sub(sent), end.Sub(start)
			}
		}()
	}
	wg.Wait()
	ph.wall = time.Since(start)
	return ph
}

// poissonDue draws n arrival offsets at the given rate.
func poissonDue(rng *rand.Rand, n int, rate float64) []time.Duration {
	due := make([]time.Duration, n)
	t := 0.0
	for i := range due {
		t += rng.ExpFloat64() / rate
		due[i] = time.Duration(t * float64(time.Second))
	}
	return due
}

// Wire shapes of replies, as far as the benchmark reads them.
type fannAnswer struct {
	P      int32   `json:"p"`
	Dist   float64 `json:"dist"`
	Subset []int32 `json:"subset"`
}

type fannReply struct {
	RawAnswers      json.RawMessage `json:"answers"`
	Degraded        bool            `json:"degraded"`
	ShardsContacted int             `json:"shards_contacted"`
	ShardsPruned    int             `json:"shards_pruned"`
	Explain         *explainReport  `json:"explain"`
}

func (r *fannReply) answers() ([]fannAnswer, error) {
	var out []fannAnswer
	if err := json.Unmarshal(r.RawAnswers, &out); err != nil {
		return nil, fmt.Errorf("decoding answers: %w", err)
	}
	return out, nil
}

type explainSpan struct {
	Name        string        `json:"name"`
	StartMicros int64         `json:"start_micros"`
	DurMicros   int64         `json:"dur_micros"`
	Children    []explainSpan `json:"children"`
}

type explainReport struct {
	DurMicros int64         `json:"dur_micros"`
	Spans     []explainSpan `json:"spans"`
}

// flatten turns the explain tree into spans under one "handler" root
// covering the whole request.
func (r *explainReport) flatten(request int) []span {
	out := []span{{Name: "handler", Start: 0, End: r.DurMicros, Parent: -1, Request: request}}
	var walk func(parent int, kids []explainSpan)
	walk = func(parent int, kids []explainSpan) {
		for _, k := range kids {
			out = append(out, span{Name: k.Name, Start: k.StartMicros, End: k.StartMicros + k.DurMicros, Parent: parent, Request: request})
			walk(len(out)-1, k.Children)
		}
	}
	walk(0, r.Spans)
	return out
}

// wantSubset is ⌈φ|Q|⌉ clamped to [1, |Q|], the size of every answer's
// flexible subset.
func wantSubset(phi float64, m int) int {
	return max(1, min(m, int(math.Ceil(phi*float64(m)))))
}

// checker does the cheap per-reply checks; it caches one membership set
// per distinct P slice (P sets come from small fixed pools).
type checker struct {
	inP map[*int32]map[int32]bool
	// first reply's answers per cache_zipf tuple: a repeat must match it
	// byte for byte.
	first map[int]json.RawMessage
}

func newChecker() *checker {
	return &checker{inP: map[*int32]map[int32]bool{}, first: map[int]json.RawMessage{}}
}

// check validates one reply: 200, not degraded, exactly k answers in
// ascending order, each p ∈ P with a subset of ⌈φ|Q|⌉ points. A repeat
// whose answers equal, byte for byte, those of its tuple's first reply
// has passed these checks already and is not decoded again.
func (c *checker) check(r *request, status int, body []byte) (*fannReply, error) {
	if status != http.StatusOK {
		return nil, fmt.Errorf("status %d: %.200s", status, body)
	}
	var rep fannReply
	if err := json.Unmarshal(body, &rep); err != nil {
		return nil, fmt.Errorf("decoding reply: %w", err)
	}
	if rep.Degraded {
		return nil, errors.New("reply stamped degraded")
	}
	if first, seen := c.first[r.tuple]; seen && r.tuple >= 0 {
		if !bytes.Equal(first, rep.RawAnswers) {
			return nil, fmt.Errorf("repeat of tuple %d differs from its first answer", r.tuple)
		}
		return &rep, nil
	}
	answers, err := rep.answers()
	if err != nil {
		return nil, err
	}
	if len(answers) != r.K {
		return nil, fmt.Errorf("%d answers, want k = %d", len(answers), r.K)
	}
	set := c.inP[&r.P[0]]
	if set == nil {
		set = make(map[int32]bool, len(r.P))
		for _, p := range r.P {
			set[p] = true
		}
		c.inP[&r.P[0]] = set
	}
	want := wantSubset(r.Phi, len(r.Q))
	for i, a := range answers {
		switch {
		case !set[a.P]:
			return nil, fmt.Errorf("answer %d: p = %d is not in P", i, a.P)
		case len(a.Subset) != want:
			return nil, fmt.Errorf("answer %d: subset of %d, want %d", i, len(a.Subset), want)
		case i > 0 && a.Dist < answers[i-1].Dist:
			return nil, fmt.Errorf("answer %d: dist %v below answer %d's %v", i, a.Dist, i-1, answers[i-1].Dist)
		}
	}
	if r.tuple >= 0 {
		c.first[r.tuple] = rep.RawAnswers
	}
	return &rep, nil
}

// scrape fetches /metrics as series → value. Exemplar suffixes and
// comments are dropped.
func (e *env) scrape(ctx context.Context, url string) (map[string]float64, error) {
	status, body, err := e.get(ctx, url+"/metrics")
	if err != nil || status != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d, err %v", status, err)
	}
	return parseMetrics(body), nil
}

func parseMetrics(body []byte) map[string]float64 {
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		if cut := strings.Index(line, " # "); cut >= 0 {
			line = line[:cut]
		}
		cut := strings.LastIndexByte(line, ' ')
		if cut < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[cut+1:], 64); err == nil {
			out[line[:cut]] = v
		}
	}
	return out
}

// sumSeries adds every series whose name (before any label set) is one
// of names.
func sumSeries(m map[string]float64, names ...string) float64 {
	total := 0.0
	for series, v := range m {
		base, _, _ := strings.Cut(series, "{")
		for _, n := range names {
			if base == n {
				total += v
			}
		}
	}
	return total
}

// metaCache is the cache section of fannr-server's /meta.
type metaCache struct {
	Enabled    bool    `json:"enabled"`
	Coalescing bool    `json:"coalescing"`
	Batching   bool    `json:"batching"`
	Entries    int64   `json:"entries"`
	Hits       int64   `json:"hits"`
	Misses     int64   `json:"misses"`
	Evictions  int64   `json:"evictions"`
	HitRate    float64 `json:"hit_rate"`
}

type meta struct {
	Nodes   int       `json:"nodes"`
	Engines []string  `json:"engines"`
	Shards  int       `json:"shards"` // fannr-shard's /meta
	Cache   metaCache `json:"cache"`
}

func parseMeta(body []byte) (*meta, error) {
	var m meta
	if err := json.Unmarshal(body, &m); err != nil {
		return nil, fmt.Errorf("decoding /meta: %w", err)
	}
	if m.Nodes == 0 {
		return nil, errors.New("/meta reports no nodes")
	}
	return &m, nil
}

func (e *env) meta(ctx context.Context, url string) (*meta, error) {
	status, body, err := e.get(ctx, url+"/meta")
	if err != nil || status != http.StatusOK {
		return nil, fmt.Errorf("GET /meta: status %d, err %v", status, err)
	}
	return parseMeta(body)
}

// cpuSeconds is the time pid's threads have spent on a core, from the
// nanosecond counters in /proc/<pid>/task/*/schedstat (utime + stime in
// /proc/<pid>/stat count in ticks of 10 ms, too coarse for a segment of
// a phase). A thread that has ended takes its time with it; the servers
// under test keep theirs.
func cpuSeconds(pid int) (float64, error) {
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	if err != nil || len(tasks) == 0 {
		return 0, fmt.Errorf("no /proc/%d/task/*/schedstat (%v)", pid, err)
	}
	var nanos float64
	for _, t := range tasks {
		data, err := os.ReadFile(t)
		if err != nil {
			continue // the thread ended between the listing and the read
		}
		f := strings.Fields(string(data))
		if len(f) == 0 {
			return 0, fmt.Errorf("%s is empty", t)
		}
		ns, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", t, err)
		}
		nanos += ns
	}
	return nanos / 1e9, nil
}

// peakRSSMB is VmHWM of pid from /proc/<pid>/status.
func peakRSSMB(pid int) float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// sortedMillis returns the latencies of the requests ok marks, ascending.
func sortedMillis(lat []time.Duration, ok func(i int) bool) []float64 {
	var out []float64
	for i, d := range lat {
		if ok(i) {
			out = append(out, millis(d))
		}
	}
	sort.Float64s(out)
	return out
}
