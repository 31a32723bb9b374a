package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"fannr/internal/binio"
	"fannr/internal/core"
	"fannr/internal/lifecycle"
	"fannr/internal/resil"
	"fannr/internal/wire"
)

// ReloadableIndex is what a hot-swappable index must expose: closable
// (drops the mapping), sized for /meta and fannr_index_bytes, and — when
// mmap-backed — its raw mapped range so page-in faults can be attributed
// to it. phl.Index and gtree.Tree both implement it.
type ReloadableIndex interface {
	Close() error
	MemoryBytes() int64
	MappedBytes() int64
	MappedData() []byte
}

// IndexSource describes one reloadable index: how to load a generation
// from disk and which index it is. The Load function is called at
// registration (the initial generation) and again on every reload; it
// must return a freshly loaded index each time, never a shared one.
type IndexSource struct {
	// Name keys the index in /meta, /readyz, metrics and reload results
	// (e.g. "phl", "gtree").
	Name string
	// Path is the backing file, reported as provenance on /meta and the
	// startup log. Empty is allowed (provenance is then omitted).
	Path string
	// Load loads one generation. Failures are retried per the server's
	// reload policy; a failure never evicts the serving generation.
	Load func() (ReloadableIndex, error)
	// Indexes says which index a loaded generation is. The source serves
	// every catalogue engine that searches it (core.Catalogue); each
	// generation gets fresh engine pools, so no pooled engine ever
	// outlives its index's mapping.
	Indexes func(ReloadableIndex) core.Indexes
}

// generation is one generation of a source: its index (nil for the
// engines that search the graph alone) and the engine pools minted over
// it. It is the lifecycle.Resource the holder refcounts. Only a
// generation loaded from a file has a release, which runs when its last
// pin drops: it folds the pools' counters into the source's retired
// totals (so fannr_pool_* stay roughly cumulative across swaps), then
// drops the fault range and the mapping. Any other generation's index
// stays its caller's.
type generation struct {
	ix      ReloadableIndex
	pools   map[string]*core.EnginePool
	release func()
}

func (g *generation) Close() error {
	if g.release != nil {
		g.release()
	}
	return nil
}

// retiredCounters accumulates the monotone counters of closed
// generations' pools, so the per-engine counter series survive swaps.
type retiredCounters struct {
	created, reused, shed atomic.Int64
}

// source is the server's handle on one index — or on none, for the
// engines that search the graph alone and for AddEngine's — and the
// engines it serves: the lifecycle holder of its generations plus
// per-engine retired counters and cached provenance. A file-backed source
// (AddReloadable) loads a new generation on every reload; every other
// source serves the one generation it was registered with, generation 0,
// and is never reloaded, quarantined or closed.
type source struct {
	src     IndexSource // Load is nil unless file-backed
	holder  *lifecycle.Holder
	retired map[string]*retiredCounters
	prov    atomic.Pointer[binio.Provenance]
}

// reloadable reports whether the source was loaded from a file: only
// such a source reloads, and only it reports lifecycle state.
func (r *source) reloadable() bool { return r.src.Load != nil }

// refreshProvenance re-stats the backing file (best-effort: a vanished
// file keeps the previous provenance rather than erasing it).
func (r *source) refreshProvenance() {
	if r.src.Path == "" {
		return
	}
	if p, err := binio.FileProvenance(r.src.Path); err == nil {
		r.prov.Store(&p)
	}
}

// read runs f on the live generation under a short-lived pin; it does
// nothing while the source has none (quarantined).
func (r *source) read(f func(*generation)) {
	if p, err := r.holder.Acquire(); err == nil {
		defer p.Release()
		f(p.Value().(*generation))
	}
}

// poolGauges reads one engine's admission gauges across generations:
// live values plus retired shed counts. Inflight/queued are
// instantaneous and die with their generation; shed is monotone.
func (r *source) poolGauges(engine string) (inflight, queued, shed int64) {
	shed = r.retired[engine].shed.Load()
	r.read(func(g *generation) {
		i, q, sh := g.pools[engine].Gauges()
		inflight, queued, shed = i, q, shed+sh
	})
	return
}

// poolStats reads one engine's pool counters across generations, like
// poolGauges: created/reused are monotone (retired + live), idle is
// instantaneous.
func (r *source) poolStats(engine string) (created, reused int64, idle int) {
	created, reused = r.retired[engine].created.Load(), r.retired[engine].reused.Load()
	r.read(func(g *generation) {
		c, ru, id := g.pools[engine].Stats()
		created, reused, idle = created+c, reused+ru, id
	})
	return
}

// footprint reads the live generation's index: heap and mmap-backed
// bytes, and its label count when it is a hub labeling. All are 0 while
// quarantined.
func (r *source) footprint() (heap, mapped, entries int64) {
	r.read(func(g *generation) {
		if g.ix == nil {
			return
		}
		heap, mapped = g.ix.MemoryBytes(), g.ix.MappedBytes()
		if lc, ok := g.ix.(labelCounted); ok {
			entries = lc.Entries()
		}
	})
	return
}

// reloadRetry is the backoff schedule for index loads: a reload racing a
// half-written file waits the writer out instead of failing the swap.
// Jitter is seeded per server start; tests inject their own policies via
// the holder directly.
func reloadRetry() resil.RetryPolicy {
	return resil.RetryPolicy{
		Attempts: 3,
		Base:     50 * time.Millisecond,
		Max:      time.Second,
		Jitter:   0.2,
		Seed:     time.Now().UnixNano(),
	}
}

// mint builds one generation's pools: an engine for every catalogue entry
// that searches ix's index or, when ix holds none, for every entry that
// searches the graph alone.
func (s *Server) mint(ix core.Indexes) map[string]*core.EnginePool {
	pools := map[string]*core.EnginePool{}
	graphOnly := ix.PHL == nil && ix.GTree == nil
	for _, e := range core.Catalogue(s.g, ix) {
		if (e.Index == core.NoIndex) == graphOnly {
			pools[e.Name] = s.newPool(e.Name, e.New)
		}
	}
	return pools
}

// addFixed registers a source whose one generation serves pools over ix,
// an index the caller owns (nil for none), under the index name name (""
// for none).
func (s *Server) addFixed(name string, ix ReloadableIndex, pools map[string]*core.EnginePool) error {
	r := &source{src: IndexSource{Name: name}}
	r.holder = lifecycle.Fixed(name, &generation{ix: ix, pools: pools})
	return s.register(r, pools)
}

// register makes r serve the engines of its first generation, whose
// pools are pools. The caller holds s.mu; on an error nothing is
// registered, and r's retired counters are complete either way, for the
// generation's release.
func (s *Server) register(r *source, pools map[string]*core.EnginePool) error {
	r.retired = make(map[string]*retiredCounters, len(pools))
	for name := range pools {
		r.retired[name] = &retiredCounters{}
	}
	if len(pools) == 0 {
		return fmt.Errorf("server: index %q serves no engine", r.src.Name)
	}
	for name := range pools {
		if s.hasEngine(name) {
			return fmt.Errorf("server: engine %q already registered", name)
		}
	}
	for name := range pools {
		s.engines[name] = r
		s.breakers[name] = s.newBreaker()
	}
	if r.src.Name != "" {
		s.indexes[r.src.Name] = r
	}
	return nil
}

// AddReloadable registers a hot-swappable index and its engines. The
// initial generation loads synchronously (with retry) — a broken file
// fails registration, like any other startup error. After Handler
// freezes the server, POST /admin/reload and SIGHUP (wired in the CLI)
// swap in fresh generations atomically: in-flight requests finish on
// the generation they pinned, and the old mapping unmaps when its last
// request releases. Like AddEngine, registration is rejected once
// frozen.
func (s *Server) AddReloadable(src IndexSource) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.frozen {
		return fmt.Errorf("server: AddReloadable(%q) after Handler — registration is frozen once serving starts", src.Name)
	}
	if src.Name == "" || src.Load == nil || src.Indexes == nil {
		return errors.New("server: AddReloadable needs a name, a loader and the index it loads")
	}
	if _, dup := s.indexes[src.Name]; dup {
		return fmt.Errorf("server: index %q already registered", src.Name)
	}

	r := &source{src: src}
	load := func() (lifecycle.Resource, error) {
		ix, err := src.Load()
		if err != nil {
			return nil, err
		}
		// The mapping joins the fault registry for exactly its serving
		// lifetime: registered before any engine can touch it, unregistered
		// after the last pin drops.
		unregister := s.ranges.Register(src.Name, ix.MappedData())
		g := &generation{ix: ix, pools: s.mint(src.Indexes(ix))}
		g.release = func() {
			for name, p := range g.pools {
				created, reused, _ := p.Stats()
				_, _, shed := p.Gauges()
				rc := r.retired[name]
				rc.created.Add(created)
				rc.reused.Add(reused)
				rc.shed.Add(shed)
			}
			unregister()
			ix.Close()
		}
		r.refreshProvenance()
		return g, nil
	}

	holder, err := lifecycle.New(src.Name, load, lifecycle.Options{Retry: reloadRetry()})
	if err != nil {
		return err
	}
	r.holder = holder
	// The engine names are the initial generation's; every later one
	// loads the same kind of index and serves the same names.
	pin, err := holder.Acquire()
	if err == nil {
		err = s.register(r, pin.Value().(*generation).pools)
		pin.Release()
	}
	if err != nil {
		holder.Close()
	}
	return err
}

// hasEngine reports whether name is a registered engine. The engine map
// is frozen before serving, so the request path reads it lock-free.
func (s *Server) hasEngine(name string) bool {
	_, ok := s.engines[name]
	return ok
}

// noteIndexFault is the Guard callback: quarantine the faulting index
// and count the fault. The request that hit the fault gets its 503
// "index_fault" from the classified error; every later request routes
// down the fallback ladder until a reload restores the index.
func (s *Server) noteIndexFault(f *lifecycle.IndexFault) {
	r, ok := s.indexes[f.Index]
	if !ok {
		return
	}
	if r.holder.Quarantine(f.Error()) {
		s.logger.Error("index quarantined after memory fault",
			"index", f.Index, "addr", fmt.Sprintf("%#x", f.Addr), "cause", f.Cause)
	}
	if m := s.metrics; m != nil {
		if c, ok := m.indexFaults[f.Index]; ok {
			c.Inc()
		}
	}
}

// Reload swaps every file-backed index to a freshly loaded generation,
// returning per-index errors (nil entries are successes). In-flight
// requests finish on their pinned generations; a failed load keeps the
// serving generation untouched. The CLI calls this on SIGHUP; HTTP
// clients POST /admin/reload.
func (s *Server) Reload(ctx context.Context) map[string]error {
	results := map[string]error{}
	for name, r := range s.indexes {
		if !r.reloadable() {
			continue
		}
		err := r.holder.Reload(ctx)
		results[name] = err
		st := r.holder.State()
		if err != nil {
			s.logger.Error("index reload failed", "index", name, "error", err,
				"generation", st.Generation, "quarantined", st.Quarantined)
		} else {
			r.refreshProvenance()
			s.logger.Info("index reloaded", "index", name, "generation", st.Generation)
		}
	}
	return results
}

// CloseIndexes releases the server's reference to every file-backed
// index. Call after the HTTP server has shut down; generations still
// pinned by straggling requests close when those requests finish.
func (s *Server) CloseIndexes() {
	for _, r := range s.indexes {
		if r.reloadable() {
			r.holder.Close()
		}
	}
}

// handleReload is POST /admin/reload: swap all file-backed indexes and
// report per-index outcomes. 200 when every index reloaded; 500 with
// per-index detail when any failed (the serving generations are
// unchanged in that case).
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	results := s.Reload(r.Context())
	status := http.StatusOK
	body := make(map[string]any, len(results))
	for name, err := range results {
		st := s.indexes[name].holder.State()
		entry := map[string]any{"generation": st.Generation, "quarantined": st.Quarantined}
		if err != nil {
			status = http.StatusInternalServerError
			entry["error"] = err.Error()
		}
		body[name] = entry
	}
	wire.WriteJSON(w, status, map[string]any{"indexes": body})
}
