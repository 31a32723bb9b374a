package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
)

// fannRequest is the /fann request body as this benchmark writes it.
type fannRequest struct {
	P      []int32 `json:"p"`
	Q      []int32 `json:"q"`
	Phi    float64 `json:"phi"`
	Agg    string  `json:"agg"`
	Algo   string  `json:"algo"`
	Engine string  `json:"engine"`
	K      int     `json:"k"`
}

// request is one generated query: the marshalled body the program under
// test receives, plus what the benchmark needs to check the reply.
type request struct {
	fannRequest
	class string // per-class reporting in algo_mix
	tuple int    // cache_zipf: identity of a repeatable query, else -1
	body  []byte
}

// sampler draws the paper's §VI-A point sets. layers.go provides it over
// fannr.WorkloadGenerator; everything else sees node ids only.
type sampler interface {
	UniformP(d float64) []int32
	UniformQ(a float64, m int) []int32
	ClusteredQ(a float64, m, c int) []int32
}

// numSamplers generators with derived seeds take the requests round-robin.
// Each draws its Q regions around one random centre, and how much work a
// query costs depends on where its centre fell: with 64 centres the
// operations in one hot_ier sequence varied ± 10 % from seed to seed, with
// 1024 they vary ± 2 %.
const numSamplers = 1024

// workload is one named traffic mix. rate is about the one-connection
// closed-loop throughput of the seed commit on the reference host: it
// sizes the closed phase to N = rate × seconds requests, so both sides of
// a comparison do identical work. openRate, 0.4 of it, is the open
// phase's arrival rate.
type workload struct {
	name     string
	rate     float64
	openRate float64
	sharded  bool // runs against fannr-shard instead of fannr-server
	// spec fills request i's parameters and returns the shape of the Q to
	// draw for it; it runs serially in index order.
	spec func(st *specState, i int, r *request) qShape
	// selfCheck names what is wrong if the closed phase did not exercise
	// the mechanism the workload exists for, else "".
	selfCheck func(evictionsPerQuery float64, shardsPruned int) string
}

type qShape struct {
	a    float64
	m, c int
	base int // ≥ 0: reuse this base pair's Q (cache_zipf)
}

// specState is the per-sequence generator state behind spec.
type specState struct {
	rng     *rand.Rand
	pools   map[float64][][]int32 // P sets by density
	zipf    *rand.Zipf
	classes []int // algo_mix: shuffled class of each block position
	counts  []int // algo_mix: requests generated so far per class
}

// poolSize P sets per density: what the INE classes of algo_mix cost
// depends on the set, so a sequence rotates over enough of them.
const poolSize = 64

func (st *specState) pool(d float64, i int) []int32 { return st.pools[d][i%poolSize] }

var (
	phis = []float64{0.1, 0.3, 0.5, 0.7, 1}
	aggs = []string{"max", "sum"}
)

// mixClass is one algo_mix class; share is out of 100.
type mixClass struct {
	name, algo, engine, agg string
	k, share                int
	d                       float64
	ms                      []int
	as                      []float64
}

var (
	wideM = []int{64, 128, 256}
	ineM  = []int{16, 32, 64}
	wideA = []float64{0.05, 0.10, 0.20}
	// The INE classes stop at A = 10 %: at 20 % with φ ≥ 0.7 they expand
	// over most of the network, 18–36 ms on average and up to 105 ms, and
	// that eighth of their requests alone made the time 200 requests take
	// vary by 13 % from segment to segment.
	ineA = []float64{0.05, 0.10}
	// Shares put p50 inside ier-phl-sum-k10 (cumulative 30–60 % by cost)
	// and p95 at the middle of gd-gtree-max, the dearest 7 %, not on a
	// class boundary. The expanding algorithms (rlist, exactmax, apxsum)
	// run at d = 0.01: at d = 0.001 how far they expand to reach one of 17
	// data points depends so much on where Q fell that apxsum alone moved
	// a sequence's total work by ± 10 % between seeds.
	mixClasses = []mixClass{
		{"ier-phl-max-k1", "ier", "IER-PHL", "max", 1, 15, 0.001, wideM, wideA},
		{"gd-phl-sum", "gd", "PHL", "sum", 1, 15, 0.001, wideM, wideA},
		{"ier-phl-sum-k10", "ier", "IER-PHL", "sum", 10, 30, 0.01, wideM, wideA},
		{"gd-phl-max-dense", "gd", "PHL", "max", 1, 10, 0.01, wideM, wideA},
		{"rlist-ine-sum", "rlist", "INE", "sum", 1, 10, 0.01, ineM, ineA},
		{"exactmax-ine-max", "exactmax", "INE", "max", 1, 8, 0.01, ineM, ineA},
		{"gd-gtree-max", "gd", "GTree", "max", 1, 7, 0.001, wideM, wideA},
		{"apxsum-phl-sum", "apxsum", "PHL", "sum", 1, 5, 0.01, wideM, wideA},
	}
)

const (
	zipfBases = 40
	shardD    = 0.05
)

var workloads = []workload{
	{
		name: "hot_ier", rate: 800, openRate: 320,
		spec: func(st *specState, i int, r *request) qShape {
			r.fannRequest = fannRequest{P: st.pool(0.01, i), Phi: 0.5, Agg: "max", Algo: "ier", Engine: "IER-PHL", K: 1}
			r.class = "ier-phl-max-k1"
			return qShape{a: 0.10, m: 128, c: 1, base: -1}
		},
		selfCheck: func(evictions float64, _ int) string {
			if evictions == 0 {
				return "hot_ier must overflow the cache, yet nothing was evicted"
			}
			return ""
		},
	},
	{
		name: "cache_zipf", rate: 2800, openRate: 1100,
		spec: func(st *specState, i int, r *request) qShape {
			base := int(st.zipf.Uint64())
			pi, ai, ki := st.rng.Intn(len(phis)), st.rng.Intn(2), st.rng.Intn(2)
			r.fannRequest = fannRequest{P: st.pool(0.01, base), Phi: phis[pi], Agg: aggs[ai], Algo: "ier", Engine: "IER-PHL", K: []int{1, 5}[ki]}
			r.class = "ier-phl-cached"
			r.tuple = ((base*len(phis)+pi)*2+ai)*2 + ki
			return qShape{a: 0.10, m: 128, c: 1, base: base}
		},
		selfCheck: func(evictions float64, _ int) string {
			if evictions != 0 {
				return fmt.Sprintf("cache_zipf must fit the cache, yet it evicted %.3f entries per query", evictions)
			}
			return ""
		},
	},
	{
		// 270, not the 200 it reaches: at 10 s that makes 13 segments of two
		// blocks each, about the fewest a quiet tenth can be taken from.
		name: "algo_mix", rate: 270, openRate: 80,
		spec: func(st *specState, i int, r *request) qShape {
			if i%block == 0 { // a fresh seeded shuffle per block keeps the shares exact
				st.rng.Shuffle(len(st.classes), func(a, b int) { st.classes[a], st.classes[b] = st.classes[b], st.classes[a] })
			}
			ci := st.classes[i%block]
			c := mixClasses[ci]
			j := st.counts[ci]
			st.counts[ci]++
			// The paper's §VI grid, walked as one mixed-radix counter.
			r.fannRequest = fannRequest{P: st.pool(c.d, j), Phi: phis[j%5], Agg: c.agg, Algo: c.algo, Engine: c.engine, K: c.k}
			r.class = c.name
			return qShape{a: c.as[j/15%len(c.as)], m: c.ms[j/5%3], c: []int{1, 4}[j/45%2], base: -1}
		},
	},
	{
		name: "shard4", rate: 560, openRate: 220, sharded: true,
		spec: func(st *specState, i int, r *request) qShape {
			r.fannRequest = fannRequest{P: st.pools[shardD][0], Phi: 0.5, Agg: "max", Algo: "gd", Engine: "PHL", K: 1}
			r.class = "gd-phl-sharded"
			return qShape{a: 0.25, m: 8, c: 2, base: -1}
		},
		selfCheck: func(_ float64, shardsPruned int) string {
			if shardsPruned == 0 {
				return "shard4 must let the coordinator prune, yet no reply reports a pruned shard"
			}
			return ""
		},
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// generate builds the first n requests of w's sequence for seed and the
// SHA-256 of their bodies. newSampler(i) makes the i-th generator of the
// seed. Generator 0 draws the P pools, the first zipfBases generators one
// base Q each, and parameters are fixed serially; then every generator
// draws the Q of its own requests in index order, a few generators at a
// time (a generator holds a shortest-path tree, so they are made when
// their turn comes and dropped after it). The result does not depend on
// scheduling.
func generate(w *workload, seed int64, n int, newSampler func(i int) sampler) ([]request, string, error) {
	st := &specState{
		rng:    rand.New(rand.NewSource(seed)),
		pools:  map[float64][][]int32{},
		counts: make([]int, len(mixClasses)),
	}
	st.zipf = rand.NewZipf(st.rng, 1.2, 1, zipfBases-1)
	for ci, c := range mixClasses {
		for s := 0; s < c.share; s++ {
			st.classes = append(st.classes, ci)
		}
	}
	early := make([]sampler, zipfBases) // kept for their own requests below
	baseQ := make([][]int32, zipfBases)
	eachOf(zipfBases, func(b int) {
		early[b] = newSampler(b)
		baseQ[b] = early[b].UniformQ(0.10, 128)
	})
	for _, d := range []float64{0.001, 0.01} {
		for i := 0; i < poolSize; i++ {
			st.pools[d] = append(st.pools[d], early[0].UniformP(d))
		}
	}
	st.pools[shardD] = [][]int32{early[0].UniformP(shardD)}

	reqs := make([]request, n)
	shapes := make([]qShape, n)
	for i := range reqs {
		reqs[i].tuple = -1
		shapes[i] = w.spec(st, i, &reqs[i])
	}

	errs := make([]error, numSamplers)
	eachOf(min(n, numSamplers), func(s int) {
		var sm sampler
		if s < len(early) {
			sm = early[s]
		} else {
			sm = newSampler(s)
		}
		for i := s; i < n; i += numSamplers {
			r, sh := &reqs[i], shapes[i]
			switch {
			case sh.base >= 0:
				r.Q = baseQ[sh.base]
			case sh.c > 1:
				r.Q = sm.ClusteredQ(sh.a, sh.m, sh.c)
			default:
				r.Q = sm.UniformQ(sh.a, sh.m)
			}
			if r.body, errs[s] = json.Marshal(&r.fannRequest); errs[s] != nil {
				return
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, "", err
		}
	}
	h := sha256.New()
	for i := range reqs {
		h.Write(reqs[i].body)
	}
	return reqs, hex.EncodeToString(h.Sum(nil)), nil
}

// eachOf calls f(0) … f(n-1), one call per index, from as many
// goroutines as there are cores.
func eachOf(n int, f func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				f(i)
			}
		}()
	}
	wg.Wait()
}
