package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
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

// snapshotSet is one loaded generation: the index plus the engine pools
// minted over it and the fault-range registration for its mapping. It is
// the lifecycle.Resource the holder refcounts; Close runs when the last
// pin drops — folding the pools' counters into the reloadable's retired
// totals (so fannr_pool_* stay roughly cumulative across swaps), then
// dropping the fault range and the mapping.
type snapshotSet struct {
	ix         ReloadableIndex
	pools      map[string]*core.EnginePool
	unregister func()
	retire     func(*snapshotSet)
}

func (ss *snapshotSet) Close() error {
	if ss.retire != nil {
		ss.retire(ss)
	}
	ss.unregister()
	return ss.ix.Close()
}

// retiredCounters accumulates the monotone counters of closed
// generations' pools, so the per-engine counter series survive swaps.
type retiredCounters struct {
	created, reused, shed atomic.Int64
}

// reloadable is the server's handle on one hot-swappable index: the
// lifecycle holder plus per-engine retired counters and cached
// provenance.
type reloadable struct {
	src     IndexSource
	holder  *lifecycle.Holder
	engines []string // sorted engine names, fixed at registration
	retired map[string]*retiredCounters
	prov    atomic.Pointer[binio.Provenance]
}

// refreshProvenance re-stats the backing file (best-effort: a vanished
// file keeps the previous provenance rather than erasing it).
func (r *reloadable) refreshProvenance() {
	if r.src.Path == "" {
		return
	}
	if p, err := binio.FileProvenance(r.src.Path); err == nil {
		r.prov.Store(&p)
	}
}

// pin acquires the live generation, or nil when quarantined/unloaded.
func (r *reloadable) pin() *lifecycle.Pin {
	p, err := r.holder.Acquire()
	if err != nil {
		return nil
	}
	return p
}

// poolGauges reads one engine's admission gauges across generations:
// live snapshot values plus retired shed counts. Inflight/queued are
// instantaneous and die with their generation; shed is monotone.
func (r *reloadable) poolGauges(engine string) (inflight, queued, shed int64) {
	rc := r.retired[engine]
	shed = rc.shed.Load()
	if p := r.pin(); p != nil {
		defer p.Release()
		i, q, sh := p.Value().(*snapshotSet).pools[engine].Gauges()
		inflight, queued = i, q
		shed += sh
	}
	return
}

// poolStats reads one engine's pool counters across generations, like
// poolGauges: created/reused are monotone (retired + live), idle is
// instantaneous.
func (r *reloadable) poolStats(engine string) (created, reused int64, idle int) {
	rc := r.retired[engine]
	created, reused = rc.created.Load(), rc.reused.Load()
	if p := r.pin(); p != nil {
		defer p.Release()
		c, ru, id := p.Value().(*snapshotSet).pools[engine].Stats()
		created += c
		reused += ru
		idle = id
	}
	return
}

// indexBytes reads the live generation's footprint split (0/0 while
// quarantined — the mapping is gone or going).
func (r *reloadable) indexBytes() (heap, mapped int64) {
	if p := r.pin(); p != nil {
		defer p.Release()
		ix := p.Value().(*snapshotSet).ix
		return ix.MemoryBytes(), ix.MappedBytes()
	}
	return 0, 0
}

// labelEntries reads the live generation's label count: 0 while
// quarantined, and for an index that is not a hub labeling.
func (r *reloadable) labelEntries() int64 {
	if p := r.pin(); p != nil {
		defer p.Release()
		if lc, ok := p.Value().(*snapshotSet).ix.(labelCounted); ok {
			return lc.Entries()
		}
	}
	return 0
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
	if _, dup := s.reload[src.Name]; dup {
		return fmt.Errorf("server: index %q already registered", src.Name)
	}

	r := &reloadable{src: src, retired: map[string]*retiredCounters{}}
	load := func() (lifecycle.Resource, error) {
		ix, err := src.Load()
		if err != nil {
			return nil, err
		}
		ss := &snapshotSet{
			ix:    ix,
			pools: map[string]*core.EnginePool{},
			// The mapping joins the fault registry for exactly its serving
			// lifetime: registered before any engine can touch it,
			// unregistered in Close after the last pin drops.
			unregister: s.ranges.Register(src.Name, ix.MappedData()),
			retire: func(ss *snapshotSet) {
				for name, p := range ss.pools {
					created, reused, _ := p.Stats()
					_, _, shed := p.Gauges()
					rc := r.retired[name]
					rc.created.Add(created)
					rc.reused.Add(reused)
					rc.shed.Add(shed)
				}
			},
		}
		for _, e := range core.Catalogue(s.g, src.Indexes(ix)) {
			if e.Index != core.NoIndex {
				ss.pools[e.Name] = s.newPool(e.Name, e.New)
			}
		}
		r.refreshProvenance()
		return ss, nil
	}

	holder, err := lifecycle.New(src.Name, load, lifecycle.Options{Retry: reloadRetry()})
	if err != nil {
		return err
	}
	// The engine names are the initial generation's; every later one
	// loads the same kind of index and serves the same names.
	pin, err := holder.Acquire()
	if err != nil {
		holder.Close()
		return err
	}
	for name := range pin.Value().(*snapshotSet).pools {
		r.engines = append(r.engines, name)
		r.retired[name] = &retiredCounters{}
	}
	pin.Release()
	sort.Strings(r.engines)
	if len(r.engines) == 0 {
		holder.Close()
		return fmt.Errorf("server: index %q serves no engine", src.Name)
	}
	for _, name := range r.engines {
		if s.hasEngine(name) {
			holder.Close()
			return fmt.Errorf("server: engine %q already registered", name)
		}
	}

	r.holder = holder
	s.reload[src.Name] = r
	for _, name := range r.engines {
		s.engineIndex[name] = src.Name
		s.breakers[name] = s.newBreaker()
	}
	return nil
}

// hasEngine reports whether name is a registered engine, static or
// reloadable. Both maps are frozen before serving, so the request path
// reads them lock-free.
func (s *Server) hasEngine(name string) bool {
	if _, ok := s.pools[name]; ok {
		return true
	}
	_, ok := s.engineIndex[name]
	return ok
}

// engineAvailable reports whether name can serve right now: static
// engines always can (their breaker is consulted separately); a
// reloadable engine cannot while its index is quarantined or mid-initial
// load. routeEngine consults this before the breaker so a quarantined
// index falls through the fallback ladder exactly like an open breaker.
func (s *Server) engineAvailable(name string) bool {
	idx, ok := s.engineIndex[name]
	if !ok {
		return true
	}
	return s.reload[idx].holder.State().Live
}

// engineGeneration returns the live generation of the index behind a
// reloadable engine (0 for static engines) — stamped into cache keys so
// a swap invalidates cached results computed on the old index.
func (s *Server) engineGeneration(name string) uint64 {
	idx, ok := s.engineIndex[name]
	if !ok {
		return 0
	}
	return s.reload[idx].holder.State().Generation
}

// checkout resolves the pool serving engine name, pinning the index
// generation for reloadable engines. The returned pin (nil for static
// engines) must be released after the engine goes back to its pool —
// the pin is what keeps the pool's backing mapping alive.
func (s *Server) checkout(name string) (*core.EnginePool, *lifecycle.Pin, error) {
	if pool, ok := s.pools[name]; ok {
		return pool, nil, nil
	}
	r := s.reload[s.engineIndex[name]]
	pin, err := r.holder.Acquire()
	if err != nil {
		return nil, nil, err
	}
	return pin.Value().(*snapshotSet).pools[name], pin, nil
}

// noteIndexFault is the Guard callback: quarantine the faulting index
// and count the fault. The request that hit the fault gets its 503
// "index_fault" from the classified error; every later request routes
// down the fallback ladder until a reload restores the index.
func (s *Server) noteIndexFault(f *lifecycle.IndexFault) {
	r, ok := s.reload[f.Index]
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

// Reload swaps every reloadable index to a freshly loaded generation,
// returning per-index errors (nil entries are successes). In-flight
// requests finish on their pinned generations; a failed load keeps the
// serving generation untouched. The CLI calls this on SIGHUP; HTTP
// clients POST /admin/reload.
func (s *Server) Reload(ctx context.Context) map[string]error {
	results := make(map[string]error, len(s.reload))
	for name, r := range s.reload {
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

// CloseIndexes releases the server's reference to every reloadable
// index. Call after the HTTP server has shut down; generations still
// pinned by straggling requests close when those requests finish.
func (s *Server) CloseIndexes() {
	for _, r := range s.reload {
		r.holder.Close()
	}
}

// handleReload is POST /admin/reload: swap all reloadable indexes and
// report per-index outcomes. 200 when every index reloaded; 500 with
// per-index detail when any failed (the serving generations are
// unchanged in that case).
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	results := s.Reload(r.Context())
	status := http.StatusOK
	body := make(map[string]any, len(results))
	for name, err := range results {
		st := s.reload[name].holder.State()
		entry := map[string]any{"generation": st.Generation, "quarantined": st.Quarantined}
		if err != nil {
			status = http.StatusInternalServerError
			entry["error"] = err.Error()
		}
		body[name] = entry
	}
	wire.WriteJSON(w, status, map[string]any{"indexes": body})
}
