package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fannr/internal/core"
	"fannr/internal/graph"
	"fannr/internal/gtree"
	"fannr/internal/obs"
	"fannr/internal/phl"
	"fannr/internal/resil"
)

// countingIndex wraps a loaded PHL generation so tests can prove every
// mapping is released exactly once: loads and closes must balance after
// the server lets go.
type countingIndex struct {
	*phl.Index
	closes *atomic.Int64
}

func (c *countingIndex) Close() error {
	c.closes.Add(1)
	return c.Index.Close()
}

// reloadHarness is a server whose PHL engine runs off a hot-swappable
// mmap'd index file, plus the bookkeeping the lifecycle tests assert on.
type reloadHarness struct {
	srv  *Server
	ts   *httptest.Server
	g    *graph.Graph
	path string
	good []byte // healthy v4 file bytes, for corruption-then-restore

	loads, closes atomic.Int64
}

// newReloadHarness builds a graph, persists its hub labels as a v4 file,
// and serves the "PHL" engine from a reloadable mmap of that file.
// verify=true makes every (re)load checksum the file — the torn-write
// tests need loads to fail loudly; the fault tests need lazy mapping so
// corruption is only discovered at query time.
func newReloadHarness(t *testing.T, verify bool, fallback map[string]string, opts Options) *reloadHarness {
	t.Helper()
	if runtime.GOOS != "linux" && runtime.GOOS != "darwin" {
		t.Skip("mmap index lifecycle tests need a POSIX mmap host")
	}
	g, err := graph.Generate(graph.GenConfig{Nodes: 800, Seed: 5, Name: "srv"})
	if err != nil {
		t.Fatal(err)
	}
	h := &reloadHarness{g: g, path: filepath.Join(t.TempDir(), "phl.v4")}
	ix, err := phl.Build(g, phl.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	h.good = buf.Bytes()
	if err := os.WriteFile(h.path, h.good, 0o644); err != nil {
		t.Fatal(err)
	}

	srv, err := New(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	err = srv.AddReloadable(IndexSource{
		Name: "phl",
		Path: h.path,
		Load: func() (ReloadableIndex, error) {
			ix, err := phl.Load(h.path, phl.LoadOptions{Mmap: true, Verify: verify})
			if err != nil {
				return nil, err
			}
			if !ix.Mapped() {
				ix.Close()
				return nil, fmt.Errorf("test index %s did not map", h.path)
			}
			h.loads.Add(1)
			return &countingIndex{Index: ix, closes: &h.closes}, nil
		},
		Indexes: func(ix ReloadableIndex) core.Indexes {
			return core.Indexes{PHL: ix.(*countingIndex).Index}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.SetFallback(fallback); err != nil {
		t.Fatal(err)
	}
	h.srv = srv
	h.ts = httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		h.ts.Close()
		h.srv.CloseIndexes()
	})
	return h
}

// swapFile atomically replaces the index file via rename, the way a real
// index rebuild lands: the serving generation keeps its old inode mapped
// while the directory entry points at the new bytes.
func (h *reloadHarness) swapFile(t *testing.T, content []byte) {
	t.Helper()
	tmp := h.path + ".next"
	if err := os.WriteFile(tmp, content, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, h.path); err != nil {
		t.Fatal(err)
	}
}

func (h *reloadHarness) query(i int) (FANNRequest, core.Query) {
	off := graph.NodeID(i * 37 % 100)
	q := core.Query{
		P:   []graph.NodeID{10 + off, 50 + off, 100 + off, 200 + off, 400 + off, 700 + off},
		Q:   []graph.NodeID{5 + off, 25 + off, 125 + off, 325 + off, 625 + off},
		Phi: 0.6,
		Agg: core.Max,
	}
	return FANNRequest{P: q.P, Q: q.Q, Phi: q.Phi, Agg: "max", Algo: "rlist", Engine: "PHL"}, q
}

// reloadResponse is the POST /admin/reload body shape.
type reloadResponse struct {
	Indexes map[string]struct {
		Generation  uint64 `json:"generation"`
		Quarantined bool   `json:"quarantined"`
		Error       string `json:"error"`
	} `json:"indexes"`
}

func postReload(t *testing.T, url string) (int, reloadResponse) {
	t.Helper()
	resp, err := http.Post(url+"/admin/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out reloadResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func getReadyz(t *testing.T, url string) (int, map[string]string) {
	t.Helper()
	resp, err := http.Get(url + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Quarantined map[string]string `json:"quarantined"`
	}
	_ = json.NewDecoder(resp.Body).Decode(&body)
	return resp.StatusCode, body.Quarantined
}

// TestIndexFaultQuarantineRecovery is the chaos acceptance path: truncate
// the index file under its live mapping, and the page-in fault must cost
// exactly one request — not the process. The faulting request answers 503
// "index_fault", the index quarantines (visible on /readyz), later
// requests ride the fallback ladder stamped degraded, and reloading a
// restored file brings the engine back at the next generation.
func TestIndexFaultQuarantineRecovery(t *testing.T) {
	h := newReloadHarness(t, false, map[string]string{"PHL": "INE"}, Options{})
	req, q := h.query(0)
	want, err := core.Brute(h.g, q)
	if err != nil {
		t.Fatal(err)
	}

	// Healthy baseline through the mapped index.
	status, resp := post[FANNResponse](t, h.ts.URL+"/fann", req)
	if status != http.StatusOK || resp.Engine != "PHL" || resp.Degraded {
		t.Fatalf("healthy query: status %d resp %+v", status, resp)
	}
	if math.Abs(resp.Answers[0].Dist-want.Dist) > 1e-6 {
		t.Fatalf("healthy dist %v, want %v", resp.Answers[0].Dist, want.Dist)
	}

	// Rot the file under the live mapping. Every mapped page past the new
	// EOF now faults on access.
	if err := resil.TruncateTail(h.path, 0); err != nil {
		t.Fatal(err)
	}
	var sawFault bool
	for i := 0; i < 10 && !sawFault; i++ {
		freq, _ := h.query(i)
		raw, _ := json.Marshal(freq)
		st, e := postRaw(t, h.ts.URL+"/fann", raw)
		switch {
		case st == http.StatusServiceUnavailable && e.Code == "index_fault":
			sawFault = true
		case st == http.StatusOK:
			// Pages may still be resident for this query's labels; poke on.
		default:
			t.Fatalf("query %d after truncation: status %d code %q", i, st, e.Code)
		}
	}
	if !sawFault {
		t.Fatal("no request observed the index fault after truncation")
	}

	// The process is alive and the engine degrades to the ladder.
	status, resp = post[FANNResponse](t, h.ts.URL+"/fann", req)
	if status != http.StatusOK || resp.Engine != "INE" || !resp.Degraded {
		t.Fatalf("post-fault query: status %d resp %+v (want degraded INE)", status, resp)
	}
	if math.Abs(resp.Answers[0].Dist-want.Dist) > 1e-6 {
		t.Fatalf("degraded dist %v, want %v", resp.Answers[0].Dist, want.Dist)
	}

	// Readiness reports the quarantine.
	st, quarantined := getReadyz(t, h.ts.URL)
	if st != http.StatusServiceUnavailable || quarantined["phl"] == "" {
		t.Fatalf("/readyz after fault: status %d quarantined %v", st, quarantined)
	}

	// Restore the file and hot-reload: next generation serves, readiness
	// recovers, answers come from the PHL engine again.
	h.swapFile(t, h.good)
	rst, rr := postReload(t, h.ts.URL)
	if rst != http.StatusOK {
		t.Fatalf("reload of restored file: status %d body %+v", rst, rr)
	}
	if e := rr.Indexes["phl"]; e.Generation != 2 || e.Quarantined {
		t.Fatalf("reload entry %+v, want generation 2 live", e)
	}
	if st, quarantined := getReadyz(t, h.ts.URL); st != http.StatusOK || len(quarantined) != 0 {
		t.Fatalf("/readyz after recovery: status %d quarantined %v", st, quarantined)
	}
	status, resp = post[FANNResponse](t, h.ts.URL+"/fann", req)
	if status != http.StatusOK || resp.Engine != "PHL" || resp.Degraded {
		t.Fatalf("recovered query: status %d resp %+v", status, resp)
	}
	if math.Abs(resp.Answers[0].Dist-want.Dist) > 1e-6 {
		t.Fatalf("recovered dist %v, want %v", resp.Answers[0].Dist, want.Dist)
	}

	// The faulted generation's mapping was released despite never being
	// swapped out cleanly.
	if loads, closes := h.loads.Load(), h.closes.Load(); loads != 2 || closes != 1 {
		t.Fatalf("loads %d closes %d, want 2 loads with only the faulted one closed", loads, closes)
	}
}

// TestReloadFailureKeepsServing pins the half-written-file contract: a
// reload that lands on a torn index must retry, fail, and leave the
// serving generation untouched — never evict good for broken.
func TestReloadFailureKeepsServing(t *testing.T) {
	h := newReloadHarness(t, true, nil, Options{})
	req, q := h.query(0)
	want, err := core.Brute(h.g, q)
	if err != nil {
		t.Fatal(err)
	}

	// Land a torn copy of the index (rename, like a crashed rebuild).
	torn := append([]byte(nil), h.good...)
	tornPath := h.path + ".torn"
	if err := os.WriteFile(tornPath, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := resil.TornWrite(tornPath, 0.5, 42); err != nil {
		t.Fatal(err)
	}
	tornBytes, err := os.ReadFile(tornPath)
	if err != nil {
		t.Fatal(err)
	}
	h.swapFile(t, tornBytes)

	st, rr := postReload(t, h.ts.URL)
	if st != http.StatusInternalServerError {
		t.Fatalf("reload of torn file: status %d, want 500", st)
	}
	if e := rr.Indexes["phl"]; e.Error == "" || e.Generation != 1 {
		t.Fatalf("reload entry %+v, want generation 1 with an error", e)
	}

	// Generation 1 still serves, exactly.
	status, resp := post[FANNResponse](t, h.ts.URL+"/fann", req)
	if status != http.StatusOK || resp.Engine != "PHL" || resp.Degraded {
		t.Fatalf("query after failed reload: status %d resp %+v", status, resp)
	}
	if math.Abs(resp.Answers[0].Dist-want.Dist) > 1e-6 {
		t.Fatalf("dist %v, want %v", resp.Answers[0].Dist, want.Dist)
	}

	// A repaired file swaps in on the next reload.
	h.swapFile(t, h.good)
	if st, rr := postReload(t, h.ts.URL); st != http.StatusOK || rr.Indexes["phl"].Generation != 2 {
		t.Fatalf("reload of repaired file: status %d body %+v", st, rr)
	}
}

// TestReloadSwapStorm hammers /fann from eight workers while the index
// hot-swaps 25 times. Every response must be 200 and exactly correct
// against Brute (old and new generations are loads of the same file, so
// there is one right answer), and afterwards every loaded generation
// must have been closed — zero leaked mappings, zero leaked goroutines.
func TestReloadSwapStorm(t *testing.T) {
	if testing.Short() {
		t.Skip("swap storm is a soak test")
	}
	h := newReloadHarness(t, false, nil, Options{})

	const nq = 6
	reqs := make([]FANNRequest, nq)
	wants := make([]core.Answer, nq)
	for i := 0; i < nq; i++ {
		req, q := h.query(i)
		want, err := core.Brute(h.g, q)
		if err != nil {
			t.Fatal(err)
		}
		reqs[i], wants[i] = req, want
	}

	// Warm the client plumbing for a stable goroutine baseline.
	if status, _ := post[FANNResponse](t, h.ts.URL+"/fann", reqs[0]); status != http.StatusOK {
		t.Fatalf("warmup status %d", status)
	}
	baseline := runtime.NumGoroutine()

	var (
		stop     = make(chan struct{})
		wg       sync.WaitGroup
		served   atomic.Int64
		failures atomic.Int64
		firstErr atomic.Pointer[string]
	)
	fail := func(format string, args ...any) {
		failures.Add(1)
		msg := fmt.Sprintf(format, args...)
		firstErr.CompareAndSwap(nil, &msg)
	}
	client := h.ts.Client()
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				qi := (w + i) % nq
				raw, _ := json.Marshal(reqs[qi])
				resp, err := client.Post(h.ts.URL+"/fann", "application/json", bytes.NewReader(raw))
				if err != nil {
					fail("worker %d: %v", w, err)
					return
				}
				var body FANNResponse
				derr := json.NewDecoder(resp.Body).Decode(&body)
				resp.Body.Close()
				if derr != nil {
					fail("worker %d: decode: %v", w, derr)
					return
				}
				if resp.StatusCode != http.StatusOK {
					fail("worker %d: status %d", w, resp.StatusCode)
					return
				}
				if len(body.Answers) != 1 || math.Abs(body.Answers[0].Dist-wants[qi].Dist) > 1e-6 {
					fail("worker %d query %d: answers %+v, want dist %v", w, qi, body.Answers, wants[qi].Dist)
					return
				}
				served.Add(1)
			}
		}(w)
	}

	const swaps = 25
	var lastGen uint64
	for i := 0; i < swaps; i++ {
		st, rr := postReload(t, h.ts.URL)
		if st != http.StatusOK {
			t.Errorf("swap %d: status %d body %+v", i, st, rr)
			break
		}
		lastGen = rr.Indexes["phl"].Generation
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	wg.Wait()

	if failures.Load() > 0 {
		t.Fatalf("%d failed responses during the storm; first: %s", failures.Load(), *firstErr.Load())
	}
	if served.Load() == 0 {
		t.Fatal("storm served no queries")
	}
	if lastGen != swaps+1 {
		t.Fatalf("final generation %d, want %d (initial + %d swaps)", lastGen, swaps+1, swaps)
	}

	// Wind down: the server's reference drops, stragglers drain, and every
	// generation that was ever loaded must close — no leaked mappings.
	h.ts.Close()
	h.srv.CloseIndexes()
	deadline := time.Now().Add(5 * time.Second)
	for {
		loads, closes := h.loads.Load(), h.closes.Load()
		if loads == closes && loads >= swaps+1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("mappings leaked: %d loads, %d closes", loads, closes)
		}
		time.Sleep(10 * time.Millisecond)
	}
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines %d, baseline %d — leak after the storm", runtime.NumGoroutine(), baseline)
}

// TestMetaReportsLabelEntries: /meta's hub-label entry carries the label
// count of what is serving — a built index and a file-backed generation
// alike — and an index that is not a hub labeling carries none.
func TestMetaReportsLabelEntries(t *testing.T) {
	labelEntries := func(url string) map[string]any {
		t.Helper()
		resp, err := http.Get(url + "/meta")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var meta struct {
			Indexes map[string]map[string]any `json:"indexes"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&meta); err != nil {
			t.Fatal(err)
		}
		out := map[string]any{}
		for name, entry := range meta.Indexes {
			out[name] = entry["label_entries"]
		}
		return out
	}

	g, err := graph.Generate(graph.GenConfig{Nodes: 800, Seed: 5, Name: "srv"})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := phl.Build(g, phl.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := float64(ix.Entries())

	tr, err := gtree.Build(g, gtree.Options{MaxLeafSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(g, Options{Indexes: core.Indexes{PHL: ix, GTree: tr}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if got := labelEntries(ts.URL); got["phl"] != want || got["gtree"] != nil {
		t.Fatalf("built index: /meta label_entries = %v, want phl %v and none for gtree", got, want)
	}

	h := newReloadHarness(t, true, nil, Options{})
	if got := labelEntries(h.ts.URL); got["phl"] != want {
		t.Fatalf("file-backed index: /meta label_entries = %v, want phl %v", got, want)
	}
}

// TestMixedServerOneRegistry serves a built G-tree, a file-backed mmap'd
// PHL index and an AddEngine fake from one server. /meta lists both
// indexes with lifecycle state on the file-backed one only, every
// engine's pool entry is the registry's number, a reload swaps the
// file-backed index alone while the G-tree engines keep serving, and
// CloseIndexes leaves the built tree the caller's.
func TestMixedServerOneRegistry(t *testing.T) {
	if runtime.GOOS != "linux" && runtime.GOOS != "darwin" {
		t.Skip("the file-backed index needs a POSIX mmap host")
	}
	g, err := graph.Generate(graph.GenConfig{Nodes: 800, Seed: 5, Name: "srv"})
	if err != nil {
		t.Fatal(err)
	}
	labels, err := phl.Build(g, phl.Options{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "phl.v4")
	var buf bytes.Buffer
	if err := labels.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	tr, err := gtree.Build(g, gtree.Options{MaxLeafSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(g, Options{Indexes: core.Indexes{GTree: tr}})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.AddReloadable(IndexSource{
		Name: "phl",
		Path: path,
		Load: func() (ReloadableIndex, error) { return phl.Load(path, phl.LoadOptions{Mmap: true}) },
		Indexes: func(ix ReloadableIndex) core.Indexes {
			return core.Indexes{PHL: ix.(*phl.Index)}
		},
	}); err != nil {
		t.Fatal(err)
	}
	if err := srv.AddEngine("Fake", func() core.GPhi { return core.NewINE(g) }); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	q := core.Query{P: []graph.NodeID{10, 50, 100, 200, 400, 700}, Q: []graph.NodeID{5, 25, 125, 325}, Phi: 0.5, Agg: core.Max}
	want, err := core.Brute(g, q)
	if err != nil {
		t.Fatal(err)
	}
	query := func(engine string) {
		t.Helper()
		status, resp := post[FANNResponse](t, ts.URL+"/fann", FANNRequest{P: q.P, Q: q.Q, Phi: q.Phi, Agg: "max", Algo: "gd", Engine: engine})
		if status != http.StatusOK || len(resp.Answers) != 1 || math.Abs(resp.Answers[0].Dist-want.Dist) > 1e-6 {
			t.Fatalf("%s: status %d answers %+v, want dist %v", engine, status, resp.Answers, want.Dist)
		}
	}
	for _, engine := range []string{"PHL", "IER-PHL", "GTree", "GTree-SPSP", "Fake", "INE", "PHL"} {
		query(engine)
	}

	var meta struct {
		Engines []string                  `json:"engines"`
		Pools   map[string]map[string]any `json:"pools"`
		Indexes map[string]map[string]any `json:"indexes"`
	}
	resp, err := http.Get(ts.URL + "/meta")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&meta)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(meta.Indexes) != 2 || meta.Indexes["phl"] == nil || meta.Indexes["gtree"] == nil {
		t.Fatalf("/meta indexes %v, want phl and gtree", meta.Indexes)
	}
	for _, key := range []string{"generation", "quarantined", "reloads", "reload_failures", "faults", "reloadable", "path"} {
		if _, ok := meta.Indexes["phl"][key]; !ok {
			t.Errorf("/meta indexes.phl lacks %q: %v", key, meta.Indexes["phl"])
		}
		if _, ok := meta.Indexes["gtree"][key]; ok {
			t.Errorf("/meta indexes.gtree, a built index, carries %q: %v", key, meta.Indexes["gtree"])
		}
	}
	if total, _ := meta.Indexes["gtree"]["total"].(float64); total <= 0 {
		t.Errorf("/meta indexes.gtree total %v, want the built tree's bytes", meta.Indexes["gtree"]["total"])
	}

	sc := scrapeMetrics(t, ts.URL)
	series := map[string]string{
		"created": mPoolCreated, "reused": mPoolReused, "idle": mPoolIdle,
		"inflight": mPoolInflight, "queued": mPoolQueued, "shed": mPoolShed,
	}
	if len(meta.Pools) != len(meta.Engines) {
		t.Fatalf("/meta pools %d entries for %d engines", len(meta.Pools), len(meta.Engines))
	}
	for _, engine := range meta.Engines {
		for key, name := range series {
			got, ok := sc.Value(name, obs.L("engine", engine))
			if !ok || meta.Pools[engine][key] != got {
				t.Errorf("%s: /meta pools.%s = %v, /metrics %s = %v (ok=%v)", engine, key, meta.Pools[engine][key], name, got, ok)
			}
		}
	}
	if created := meta.Pools["GTree"]["created"]; created != 1.0 {
		t.Errorf("/meta pools.GTree.created = %v, want 1", created)
	}

	status, rr := postReload(t, ts.URL)
	if e, ok := rr.Indexes["phl"]; status != http.StatusOK || len(rr.Indexes) != 1 || !ok || e.Generation != 2 {
		t.Fatalf("reload: status %d body %+v, want phl alone at generation 2", status, rr)
	}
	for _, engine := range []string{"GTree", "IER-GTree", "PHL"} {
		query(engine)
	}

	srv.CloseIndexes()
	got, err := core.Dispatch(g, "gd", core.NewGTreeGPhi(tr), q, 1)
	if err != nil || len(got) != 1 || math.Abs(got[0].Dist-want.Dist) > 1e-6 {
		t.Fatalf("built tree after CloseIndexes: %+v, %v; want dist %v", got, err, want.Dist)
	}
}

// TestAddReloadableDuplicateEngineClosesIndex: a file-backed index whose
// engines another source already serves is refused, and the generation
// it loaded is closed, not leaked.
func TestAddReloadableDuplicateEngineClosesIndex(t *testing.T) {
	if runtime.GOOS != "linux" && runtime.GOOS != "darwin" {
		t.Skip("the file-backed index needs a POSIX mmap host")
	}
	g, err := graph.Generate(graph.GenConfig{Nodes: 300, Seed: 5, Name: "dup"})
	if err != nil {
		t.Fatal(err)
	}
	labels, err := phl.Build(g, phl.Options{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "phl.v4")
	var buf bytes.Buffer
	if err := labels.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	srv, err := New(g, Options{Indexes: core.Indexes{PHL: labels}})
	if err != nil {
		t.Fatal(err)
	}
	var loads, closes atomic.Int64
	err = srv.AddReloadable(IndexSource{
		Name: "phl-file",
		Load: func() (ReloadableIndex, error) {
			ix, err := phl.Load(path, phl.LoadOptions{Mmap: true})
			if err != nil {
				return nil, err
			}
			loads.Add(1)
			return &countingIndex{Index: ix, closes: &closes}, nil
		},
		Indexes: func(ix ReloadableIndex) core.Indexes { return core.Indexes{PHL: ix.(*countingIndex).Index} },
	})
	if err == nil || !strings.Contains(err.Error(), "already registered") {
		t.Fatalf("AddReloadable over served engines: %v, want already registered", err)
	}
	if loads.Load() != 1 || closes.Load() != 1 {
		t.Fatalf("%d loads, %d closes: the refused generation must be closed", loads.Load(), closes.Load())
	}
}
