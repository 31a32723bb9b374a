package shard

import (
	"context"
	"encoding/hex"
	"fmt"
	"testing"

	"fannr/internal/resil"
)

// The coordinator's exact cache is keyed by engine@shards:<epoch>:<mask>.
// A topology change — here a shard dropping out of rotation — must make
// every previously cached result unreachable, and degraded results must
// never enter the cache at all.
func TestCoordinatorCacheTopologyInvalidation(t *testing.T) {
	const nodes = 260
	cl := newTestCluster(t, nodes, 21, 4, CoordinatorOptions{CacheEntries: 64, BreakerThreshold: 3})
	req := testQueries(nodes)[0]

	cold, err := cl.coord.Execute(context.Background(), req, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cold.CacheHit {
		t.Fatal("cold query reported a cache hit")
	}
	warm, err := cl.coord.Execute(context.Background(), req, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.CacheHit {
		t.Fatal("identical query under identical topology missed the cache")
	}
	if len(warm.Answers) != len(cold.Answers) || warm.Answers[0].Dist != cold.Answers[0].Dist {
		t.Fatalf("cached answers diverge: %+v vs %+v", warm.Answers, cold.Answers)
	}

	// Take a shard out of rotation: the healthy mask changes, so the
	// cached entry (keyed under the old mask) must not be served.
	down := cl.plan.ShardOf(req.P[0])
	cl.coord.TripShard(down)
	after, err := cl.coord.Execute(context.Background(), req, nil)
	if err != nil {
		t.Fatal(err)
	}
	if after.CacheHit {
		t.Fatal("query served from cache across a topology change")
	}
	if !after.Degraded {
		t.Fatalf("tripped shard %d owned req.P[0] yet result is not degraded", down)
	}

	// Degraded results are never cached: repeating the query under the
	// degraded topology recomputes again.
	again, err := cl.coord.Execute(context.Background(), req, nil)
	if err != nil {
		t.Fatal(err)
	}
	if again.CacheHit {
		t.Fatal("degraded result was cached")
	}
}

// TestCoordinatorCacheEngineFormat pins the key member cacheEngine
// builds without fmt against the format it replaced,
// fmt.Sprintf("%s@shards:%d:%s", engine, epoch, hex(mask)) with one mask
// bit per admitted shard, at shard counts on both sides of a byte
// boundary and with shards tripped — and the targets read once at
// construction against what the transports report.
func TestCoordinatorCacheEngineFormat(t *testing.T) {
	for _, shards := range []int{1, 4, 8, 9} {
		cl := newTestCluster(t, 260, 21, shards, CoordinatorOptions{CacheEntries: 8, BreakerThreshold: 3})
		for trip := -1; trip < shards; trip += 3 {
			if trip >= 0 {
				cl.coord.TripShard(trip)
			}
			mask := make([]byte, (shards+7)/8)
			for s := 0; s < shards; s++ {
				if cl.coord.BreakerState(s) != resil.Open {
					mask[s/8] |= 1 << (s % 8)
				}
			}
			for _, engine := range []string{"PHL", "", "an-engine-name-longer-than-the-stack-buffer-the-key-is-appended-into-so-that-it-must-grow-on-the-heap"} {
				want := fmt.Sprintf("%s@shards:%d:%s", engine, cl.plan.Epoch, hex.EncodeToString(mask))
				if got := cl.coord.cacheEngine(engine); got != want {
					t.Fatalf("S=%d: cacheEngine(%q) = %q, want %q", shards, engine, got, want)
				}
			}
		}
		for s, tr := range cl.coord.transports {
			if cl.coord.targets[s] != tr.Target() || tr.Target() != fmt.Sprintf("inproc:%d", s) {
				t.Fatalf("S=%d: shard %d target %q, transport reports %q", shards, s, cl.coord.targets[s], tr.Target())
			}
		}
	}
}
