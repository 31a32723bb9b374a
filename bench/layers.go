package main

// The only file that imports the repository: the fannr facade, and
// fannr/internal/... where the facade has no alias (core.Dispatch,
// internal/qcache, internal/shard, sp.Neighbor). It supplies the
// workload samplers, the exactness reference, and the in-process
// per-layer ladder. README.md lists every symbol used here.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"fannr"
	"fannr/internal/core"
	"fannr/internal/qcache"
	"fannr/internal/shard"
	"fannr/internal/sp"
)

// Dataset NW at 1/64 is the binaries' default -scale: 16 865 nodes.
const (
	datasetName  = "NW"
	datasetScale = 1.0 / 64
)

// roadGraph lets the other files hold the network without importing it.
type roadGraph = fannr.Graph

func loadGraph() (*fannr.Graph, error) { return fannr.LoadDataset(datasetName, datasetScale) }

// newSamplers returns the maker of seed's workload generators.
func newSamplers(g *fannr.Graph, seed int64) func(i int) sampler {
	return func(i int) sampler { return fannr.NewWorkloadGenerator(g, seed*1_000_003+int64(i)) }
}

func aggOf(name string) fannr.Aggregate {
	if name == "sum" {
		return fannr.Sum
	}
	return fannr.Max
}

// sameDist allows for a path's edge weights being summed in the opposite
// order by a search from the other endpoint.
func sameDist(a, b float64) bool { return math.Abs(a-b) <= 1e-9*(1+math.Abs(b)) }

// bruteCheck recomputes a query by enumeration — one Dijkstra per point
// of the smaller of P and Q, an explicit sort per data point — and
// compares the reply with it: the i-th answer must carry the i-th
// smallest g_φ, and its p must really have that g_φ. apxsum replies need
// only stay within the Theorem-2 ratio of the optimum. fannr.KBrute is
// the same check with one 3 ms search per data point, which at d = 0.05
// costs 2.5 s per reply.
func bruteCheck(g *fannr.Graph, r *request, got []fannAnswer) error {
	d := fannr.NewDijkstra(g)
	toP := make([][]float64, len(r.P)) // toP[i][j] = dist(P[i], Q[j])
	for i := range toP {
		toP[i] = make([]float64, len(r.Q))
	}
	if len(r.P) <= len(r.Q) { // search from whichever side is smaller
		for i, p := range r.P {
			d.DistBatch(p, r.Q, toP[i])
		}
	} else {
		col := make([]float64, len(r.P))
		for j, q := range r.Q {
			d.DistBatch(q, r.P, col)
			for i := range r.P {
				toP[i][j] = col[i]
			}
		}
	}
	k := wantSubset(r.Phi, len(r.Q))
	gphi := make(map[int32]float64, len(r.P))
	ranked := make([]float64, len(r.P))
	for i, p := range r.P {
		sort.Float64s(toP[i])
		val := toP[i][k-1]
		if r.Agg == "sum" {
			val = 0
			for _, x := range toP[i][:k] {
				val += x
			}
		}
		gphi[p], ranked[i] = val, val
	}
	sort.Float64s(ranked)
	for i, a := range got {
		if !sameDist(a.Dist, gphi[a.P]) {
			return fmt.Errorf("answer %d: dist %v but g_φ(%d) = %v", i, a.Dist, a.P, gphi[a.P])
		}
		if r.Algo == "apxsum" {
			bound := fannr.APXSumRatioBound(fannr.Query{P: r.P, Q: r.Q})
			if i == 0 && a.Dist > bound*ranked[0]*(1+1e-9) {
				return fmt.Errorf("apxsum dist %v exceeds %v × optimum %v", a.Dist, bound, ranked[0])
			}
			continue
		}
		if !sameDist(a.Dist, ranked[i]) {
			return fmt.Errorf("answer %d: dist %v, exact rank-%d distance is %v", i, a.Dist, i+1, ranked[i])
		}
	}
	return nil
}

// recorder keeps the ladder's spans in memory until the run ends. open
// and close nest on the ladder's own goroutine; leaf may be called from
// the goroutines a coordinator wave starts.
type recorder struct {
	mu      sync.Mutex
	t0      time.Time
	spans   []span
	cur     int
	request int
}

// maxSpans bounds the trace file (about 100 bytes a span).
const maxSpans = 60_000

func newRecorder() *recorder { return &recorder{t0: time.Now(), cur: -1} }

func (r *recorder) open(name string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.spans) >= maxSpans {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Start: time.Since(r.t0).Microseconds(), Parent: r.cur, Request: r.request})
	r.cur = len(r.spans) - 1
	return r.cur
}

func (r *recorder) close(id int) {
	if id < 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id].End = time.Since(r.t0).Microseconds()
	r.cur = r.spans[id].Parent
}

func (r *recorder) leaf(name string, start, end time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.spans) < maxSpans {
		r.spans = append(r.spans, span{Name: name, Start: start.Sub(r.t0).Microseconds(), End: end.Sub(r.t0).Microseconds(), Parent: r.cur, Request: r.request})
	}
}

// spanGPhi records one span per g_φ evaluation.
type spanGPhi struct {
	fannr.GPhi
	rec *recorder
}

func (s spanGPhi) Dist(p fannr.NodeID, k int, agg fannr.Aggregate) (float64, bool) {
	id := s.rec.open("gphi.dist")
	defer s.rec.close(id)
	return s.GPhi.Dist(p, k, agg)
}

func (s spanGPhi) BindStats(st *core.Stats) { core.BindStats(s.GPhi, st) }

// batchOracle is what phl.Index.NewBatcher returns.
type batchOracle interface {
	Dist(u, v fannr.NodeID) float64
	DistBatch(u fannr.NodeID, targets []fannr.NodeID, out []float64)
}

// spanOracle records one span per distance-oracle call.
type spanOracle struct {
	o   batchOracle
	rec *recorder
}

func (s spanOracle) Dist(u, v fannr.NodeID) float64 {
	id := s.rec.open("oracle.dist")
	defer s.rec.close(id)
	return s.o.Dist(u, v)
}

func (s spanOracle) DistBatch(u fannr.NodeID, targets []fannr.NodeID, out []float64) {
	id := s.rec.open("oracle.distbatch")
	defer s.rec.close(id)
	s.o.DistBatch(u, targets, out)
}

// timedTransport records one span per shard RPC and counts calls.
type timedTransport struct {
	shard.Transport
	rec   *recorder
	calls *int64
	mu    *sync.Mutex
}

func (t timedTransport) Call(ctx context.Context, req *shard.Request) (*shard.Response, error) {
	start := time.Now()
	resp, err := t.Transport.Call(ctx, req)
	t.rec.leaf("shard.host", start, time.Now())
	t.mu.Lock()
	*t.calls++
	t.mu.Unlock()
	return resp, err
}

func seconds(f func() error) (float64, error) {
	start := time.Now()
	err := f()
	return time.Since(start).Seconds(), err
}

func fileBytes(path string) float64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return float64(st.Size())
}

func save(path string, write func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ladder measures every layer below the HTTP handler in-process, from
// index construction down to single oracle calls. Timings are medians or
// means over fixed seeded inputs on one goroutine; counts must repeat
// exactly for a seed. reqs are the workload's own requests; the class
// and shard rungs replay algo_mix and shard4 requests whatever the
// workload, so every metric exists on every workload.
func ladder(ctx context.Context, g *fannr.Graph, seed int64, reqs []request, tmp string, rec *recorder) (map[string]float64, error) {
	m := map[string]float64{}
	ix, tr, plan, err := buildRungs(g, tmp, m)
	if err != nil {
		return nil, err
	}
	oracles(g, ix, tr, seed, m)

	engines := map[string]fannr.GPhi{
		"INE":   fannr.NewINE(g),
		"PHL":   fannr.NewOracleGPhi("PHL", ix),
		"GTree": fannr.NewGTreeGPhi(tr),
	}
	if engines["IER-PHL"], err = fannr.NewIERGPhi("IER-PHL", g, ix); err != nil {
		return nil, err
	}
	engineRungs(g, engines, reqs, rec, m)
	if err := dispatchRungs(g, engines, reqs, seed, m); err != nil {
		return nil, err
	}
	cacheRungs(reqs, m)
	if err := shardRungs(ctx, g, ix, plan, seed, rec, m); err != nil {
		return nil, err
	}
	// Last, because it may fill the recorder.
	return m, tracedReplay(g, ix, engines, reqs, rec)
}

// buildRungs times index construction, saving and loading: what setup_s
// is made of.
func buildRungs(g *fannr.Graph, tmp string, m map[string]float64) (ix *fannr.PHLIndex, tr *fannr.GTree, plan *shard.Plan, err error) {
	if m["graph.generate_s"], err = seconds(func() error { _, err := loadGraph(); return err }); err != nil {
		return
	}
	if m["phl.build_s"], err = seconds(func() (err error) { ix, err = fannr.BuildPHL(g, fannr.PHLOptions{}); return }); err != nil {
		return
	}
	phlPath, gtPath := filepath.Join(tmp, "ladder.phl"), filepath.Join(tmp, "ladder.gtree")
	if m["phl.save_s"], err = seconds(func() error { return save(phlPath, func(f *os.File) error { return ix.Save(f) }) }); err != nil {
		return
	}
	m["phl.index_bytes"] = fileBytes(phlPath)
	for _, mode := range []struct {
		name string
		mmap bool
	}{{"phl.load_heap_ms", false}, {"phl.load_mmap_ms", true}} {
		var s float64
		if s, err = seconds(func() error {
			loaded, err := fannr.LoadPHL(phlPath, fannr.LoadOptions{Mmap: mode.mmap})
			if err != nil {
				return err
			}
			return loaded.Close()
		}); err != nil {
			return
		}
		m[mode.name] = s * 1e3
	}
	if m["gtree.build_s"], err = seconds(func() (err error) { tr, err = fannr.BuildGTree(g, fannr.GTreeOptions{}); return }); err != nil {
		return
	}
	if err = save(gtPath, func(f *os.File) error { return tr.Save(f) }); err != nil {
		return
	}
	m["gtree.index_bytes"] = fileBytes(gtPath)
	var s float64
	if s, err = seconds(func() error {
		loaded, err := fannr.LoadGTree(gtPath, g, fannr.LoadOptions{Mmap: true})
		if err != nil {
			return err
		}
		return loaded.Close()
	}); err != nil {
		return
	}
	m["gtree.load_mmap_ms"] = s * 1e3
	m["shard.plan_build_s"], err = seconds(func() (err error) {
		plan, err = shard.NewPlan(g, tr, shard.PlanOptions{Shards: 4})
		return
	})
	return
}

// engineRungs times the R-tree over P (built per ier request) and one
// g_φ evaluation per engine, on the workload's own point sets.
func engineRungs(g *fannr.Graph, engines map[string]fannr.GPhi, reqs []request, rec *recorder, m map[string]float64) {
	var ptree []float64
	seen := map[*int32]bool{}
	for i := range reqs {
		if p := reqs[i].P; !seen[&p[0]] {
			seen[&p[0]] = true
			id := rec.open("rtree.build_ptree")
			start := time.Now()
			fannr.BuildPTree(g, p)
			ptree = append(ptree, micros(time.Since(start)))
			rec.close(id)
		}
	}
	m["rtree.build_ptree_us"] = median(ptree)

	for name, key := range map[string]string{"INE": "ine", "PHL": "phl", "IER-PHL": "ier-phl", "GTree": "gtree"} {
		var us []float64
		gp := engines[name]
		for i := 0; i < min(50, len(reqs)); i++ {
			r := &reqs[i]
			k := wantSubset(r.Phi, len(r.Q))
			gp.Reset(r.Q)
			for _, p := range r.P[:min(16, len(r.P))] {
				start := time.Now()
				gp.Dist(p, k, aggOf(r.Agg))
				us = append(us, micros(time.Since(start)))
			}
		}
		m["core.gphi_dist_us."+key] = median(us)
	}
}

// dispatch runs one request through core.Dispatch on gp, as the server's
// compute stage does, counting operations into st when it is not nil.
func dispatch(g *fannr.Graph, gp fannr.GPhi, r *request, st *core.Stats) (time.Duration, error) {
	q := fannr.Query{P: r.P, Q: r.Q, Phi: r.Phi, Agg: aggOf(r.Agg), Stats: st}
	core.BindStats(gp, st)
	defer core.BindStats(gp, nil)
	start := time.Now()
	_, err := core.Dispatch(g, r.Algo, gp, q, r.K)
	return time.Since(start), err
}

// dispatchRungs replays the workload's first 300 requests for the
// operation counts and 400 algo_mix requests for the per-class times.
func dispatchRungs(g *fannr.Graph, engines map[string]fannr.GPhi, reqs []request, seed int64, m map[string]float64) error {
	var total core.Stats
	n := min(300, len(reqs))
	for i := 0; i < n; i++ {
		var st core.Stats
		if _, err := dispatch(g, engines[reqs[i].Engine], &reqs[i], &st); err != nil {
			return fmt.Errorf("dispatch of request %d: %w", i, err)
		}
		total.Add(st)
	}
	m["core.gphi_evals_per_query"] = float64(total.GPhiEvals) / float64(n)
	m["core.heap_pops_per_query"] = float64(total.HeapPops) / float64(n)
	m["core.index_visits_per_query"] = float64(total.IndexVisits) / float64(n)
	m["core.settled_per_query"] = float64(total.Settled) / float64(n)
	if work := total.Pruned + total.GPhiEvals; work > 0 {
		m["core.pruned_ratio"] = float64(total.Pruned) / float64(work)
	}

	mixW, _ := findWorkload("algo_mix")
	mix, _, err := generate(mixW, seed, 400, newSamplers(g, seed))
	if err != nil {
		return err
	}
	byClass := map[string][]float64{}
	for i := range mix {
		d, err := dispatch(g, engines[mix[i].Engine], &mix[i], nil)
		if err != nil {
			return fmt.Errorf("dispatch of %s: %w", mix[i].class, err)
		}
		byClass[mix[i].class] = append(byClass[mix[i].class], micros(d))
	}
	for _, c := range mixClasses {
		m["core.dispatch_us."+c.name] = median(byClass[c.name])
	}
	return nil
}

// tracedReplay runs the workload's first requests through the same call
// chain with a span per call: what trace-<workload>.json shows under
// each core.dispatch.
func tracedReplay(g *fannr.Graph, ix *fannr.PHLIndex, engines map[string]fannr.GPhi, reqs []request, rec *recorder) error {
	traced := map[string]fannr.GPhi{
		"INE":   spanGPhi{engines["INE"], rec},
		"GTree": spanGPhi{engines["GTree"], rec},
		"PHL":   spanGPhi{fannr.NewOracleGPhi("PHL", spanOracle{ix.NewBatcher(), rec}), rec},
	}
	ier, err := fannr.NewIERGPhi("IER-PHL", g, spanOracle{ix.NewBatcher(), rec})
	if err != nil {
		return err
	}
	traced["IER-PHL"] = spanGPhi{ier, rec}
	for i := 0; i < min(40, len(reqs)) && len(rec.spans) < maxSpans; i++ {
		rec.request = i
		id := rec.open("core.dispatch")
		_, err := dispatch(g, traced[reqs[i].Engine], &reqs[i], nil)
		rec.close(id)
		if err != nil {
			return err
		}
	}
	return nil
}

// oracles times the distance oracles on seeded random pairs.
func oracles(g *fannr.Graph, ix *fannr.PHLIndex, tr *fannr.GTree, seed int64, m map[string]float64) {
	rng := rand.New(rand.NewSource(seed))
	n := g.NumNodes()
	pairs := make([][2]fannr.NodeID, 10_000)
	for i := range pairs {
		pairs[i] = [2]fannr.NodeID{fannr.NodeID(rng.Intn(n)), fannr.NodeID(rng.Intn(n))}
	}
	perCall := func(count int, dist func(u, v fannr.NodeID) float64) time.Duration {
		start := time.Now()
		for _, p := range pairs[:count] {
			dist(p[0], p[1])
		}
		return time.Since(start) / time.Duration(count)
	}
	m["phl.dist_ns"] = float64(perCall(len(pairs), ix.Dist))
	m["gtree.dist_us"] = micros(perCall(2000, tr.NewQuerier().Dist))
	m["sp.dijkstra_p2p_us"] = micros(perCall(300, fannr.NewDijkstra(g).Dist))

	b := ix.NewBatcher()
	targets, out := make([]fannr.NodeID, 128), make([]float64, 128)
	start := time.Now()
	const batches = 1000
	for i := 0; i < batches; i++ {
		for j := range targets {
			targets[j] = pairs[(i*128+j)%len(pairs)][1]
		}
		b.DistBatch(pairs[i][0], targets, out)
	}
	m["phl.distbatch_ns_per_target"] = float64(time.Since(start)) / (batches * 128)
}

// cacheRungs calls the semantic cache directly with keys shaped like the
// workload's: one result per query, one neighbour list per candidate.
func cacheRungs(reqs []request, m map[string]float64) {
	ids := 0
	start := time.Now()
	fps := make([]qcache.Fingerprint, len(reqs))
	for i := range reqs {
		qcache.FingerprintNodes(reqs[i].P)
		fps[i] = qcache.FingerprintNodes(reqs[i].Q)
		ids += len(reqs[i].P) + len(reqs[i].Q)
	}
	m["qcache.fingerprint_ns_per_id"] = float64(time.Since(start)) / float64(ids)

	r := &reqs[0]
	subset := r.Q[:wantSubset(r.Phi, len(r.Q))]
	answers := []core.Answer{{P: r.P[0], Dist: 1, Subset: subset}}
	nbrs := make([]sp.Neighbor, len(subset))
	for i, q := range subset {
		nbrs[i] = sp.Neighbor{Node: q, Dist: float64(i)}
	}
	// Ten times the capacity, so puts run the evicting path as they do
	// when no request repeats.
	const capacity, puts = 4096, 40_960
	cache := qcache.New(qcache.Config{MaxEntries: capacity})
	key := func(i int) qcache.ResultKey {
		return qcache.ResultKey{Engine: "IER-PHL@1", Algo: r.Algo, Agg: aggOf(r.Agg), Phi: r.Phi, K: 1 + i/len(fps), P: fps[0], Q: fps[i%len(fps)]}
	}
	start = time.Now()
	for i := 0; i < puts; i++ {
		cache.PutResult(key(i), answers)
	}
	m["qcache.put_result_ns"] = float64(time.Since(start)) / puts
	start = time.Now()
	for i := 0; i < puts; i++ {
		cache.GetResult(key(puts - 1 - i%(capacity/4))) // the most recent quarter is resident
	}
	m["qcache.get_result_ns"] = float64(time.Since(start)) / puts
	start = time.Now()
	for i := 0; i < puts; i++ {
		cache.PutList("IER-PHL@1", fps[i%len(fps)], fannr.NodeID(i/len(fps)), nbrs, false)
	}
	m["qcache.put_list_ns"] = float64(time.Since(start)) / puts
}

// shardRungs replays shard4 requests through an in-process Plan, four
// Hosts and a Coordinator wired as fannr-shard -mode all wires them.
func shardRungs(ctx context.Context, g *fannr.Graph, ix *fannr.PHLIndex, plan *shard.Plan, seed int64, rec *recorder, m map[string]float64) error {
	w, _ := findWorkload("shard4")
	reqs, _, err := generate(w, seed, 300, newSamplers(g, seed))
	if err != nil {
		return err
	}
	newHost := func(id int) (*shard.Host, error) {
		h := shard.NewHost(id, g, shard.HostOptions{CacheEntries: 1024})
		return h, h.AddEngine("PHL", func() core.GPhi { return core.NewOracleGPhi("PHL", ix) })
	}
	S := plan.Shards()
	calls := make([]int64, S)
	var mu sync.Mutex
	transports := make([]shard.Transport, S)
	direct := make([]*shard.Host, S) // a second set, so direct calls do not warm the coordinator's hosts' caches
	for s := 0; s < S; s++ {
		h, err := newHost(s)
		if err != nil {
			return err
		}
		transports[s] = timedTransport{shard.InProc{Host: h}, rec, &calls[s], &mu}
		if direct[s], err = newHost(s); err != nil {
			return err
		}
	}
	coord, err := shard.NewCoordinator(plan, transports, shard.CoordinatorOptions{MaxFanout: 2, CacheEntries: 4096})
	if err != nil {
		return err
	}

	var split, bound, codec, host, coordUS, coordSelf []float64
	contacted, pruned := 0, 0
	for i := range reqs {
		r := &reqs[i]
		start := time.Now()
		perShard := plan.SplitP(r.P)
		split = append(split, micros(time.Since(start)))

		k := wantSubset(r.Phi, len(r.Q))
		start = time.Now()
		for s := 0; s < S; s++ {
			plan.Bound(s, r.Q, k, aggOf(r.Agg))
		}
		bound = append(bound, micros(time.Since(start)))

		sub := &shard.Request{P: perShard[i%S], Q: r.Q, Phi: r.Phi, Agg: r.Agg, Algo: r.Algo, Engine: r.Engine, K: r.K}
		start = time.Now()
		resp, err := direct[i%S].Execute(ctx, sub)
		host = append(host, micros(time.Since(start)))
		if err != nil {
			return fmt.Errorf("shard host %d: %w", i%S, err)
		}
		start = time.Now()
		frame, err := shard.EncodeRequest(sub)
		if err == nil {
			_, err = shard.DecodeRequest(frame)
		}
		if err == nil {
			frame, err = shard.EncodeResponse(resp)
		}
		if err == nil {
			_, err = shard.DecodeResponse(frame)
		}
		if err != nil {
			return fmt.Errorf("shard codec: %w", err)
		}
		codec = append(codec, micros(time.Since(start)))

		rec.request = i
		first := len(rec.spans)
		id := rec.open("shard.coord")
		res, err := coord.Execute(ctx, &shard.Request{P: r.P, Q: r.Q, Phi: r.Phi, Agg: r.Agg, Algo: r.Algo, Engine: r.Engine, K: r.K}, nil)
		rec.close(id)
		if err != nil {
			return fmt.Errorf("coordinator: %w", err)
		}
		contacted += res.Contacted
		pruned += res.Pruned
		if id >= 0 {
			// Self time of the coordinator span alone: rebase this
			// request's spans so parents index into the sub-slice.
			sub := append([]span(nil), rec.spans[first:]...)
			for j := range sub {
				sub[j].Parent = max(sub[j].Parent-first, -1)
			}
			coordUS = append(coordUS, float64(sub[0].End-sub[0].Start))
			coordSelf = append(coordSelf, float64(selfTimes(sub)[0]))
		}
	}
	m["shard.split_us"] = median(split)
	m["shard.bound_us"] = median(bound)
	m["shard.codec_us"] = median(codec)
	m["shard.host_execute_us"] = median(host)
	m["shard.coord_execute_us"] = median(coordUS)
	m["shard.coord_self_us"] = median(coordSelf)
	m["shard.contacted_per_query"] = float64(contacted) / float64(len(reqs))
	m["shard.pruned_per_query"] = float64(pruned) / float64(len(reqs))
	most, sum := int64(0), int64(0)
	for _, c := range calls {
		most, sum = max(most, c), sum+c
	}
	if sum > 0 {
		m["shard.load_imbalance"] = float64(most) * float64(S) / float64(sum)
	}
	return nil
}
