# Verification tiers. `make verify` is the full pre-merge recipe; the
# individual tiers exist so CI (or an impatient human) can run them
# separately. See README "Testing" for what each tier certifies.

GO ?= go

.PHONY: verify build test vet bench race race-full fuzz-smoke chaos chaos-load explain-smoke shard-smoke bench-server bench-build bench-json bench-cache bench-overhead bench-hotpath bench-guard bench-load bench-trend bench-shards

## Tier 1 — compile + unit/integration tests (the seed contract).
build:
	$(GO) build ./...

## bench/ is a module of its own, outside ./..., yet it imports core,
## qcache and shard internals: both tiers build it so a refactor cannot
## break the benchmark unseen.
test:
	$(GO) test ./...
	$(GO) test -C bench ./...

## Tier 2 — static analysis.
vet:
	$(GO) vet ./...
	$(GO) vet -C bench ./...

## The repo's benchmark (BENCHMARK.json; bench/README.md): end-to-end
## metrics of the four named workloads, one JSON line each on stdout.
bench:
	for w in hot_ier cache_zipf algo_mix shard4; do \
		$(GO) run -C bench fannr/bench -workload $$w -seed 1 || exit 1; \
	done

## Tier 3 — race detector over the concurrency-bearing packages
## (engine pools, HTTP server, parallel index builds, workload draws) plus
## the cross-engine differential harness. Heavy cases are trimmed via
## -short; drop it for the full hammer.
race: explain-smoke shard-smoke
	$(GO) test -race -short ./internal/server/... ./internal/core/... \
		./internal/resil/... ./internal/gtree/... ./internal/ch/... \
		./internal/par/... ./internal/workload/... ./internal/difftest/... \
		./internal/obs/... ./internal/qcache/... ./internal/lifecycle/... \
		./internal/phl/... ./internal/sp/... ./internal/rtree/... \
		./internal/shard/...

## Explain/observability smoke under the race detector: the nine-engine
## span-vs-counter invariant, slow-query capture with exemplar linkage,
## the slow-log hammer, and the trace-disabled zero-alloc guard.
explain-smoke:
	$(GO) test -race -run 'TestExplain|TestSlowLog|TestExemplar|TestObserveEx|TestTrace' \
		./internal/server/ ./internal/obs/ ./internal/core/

## Sharded-serving smoke under the race detector: exactness vs brute at
## S ∈ {1,2,4}, bound pruning, degraded partial results with one shard
## down, breaker + /readyz, the error-taxonomy table over the
## coordinator, and topology-epoch cache invalidation.
shard-smoke:
	$(GO) test -race -run 'TestCoordinator|TestHTTPTransport|TestPlan|TestCodec|TestPartitionK' \
		./internal/shard/ ./internal/gtree/
	$(GO) test -race -short -run TestDifferentialSharded ./internal/difftest/

## Race detector over everything, full-size tests (slow).
race-full:
	$(GO) test -race ./...

## Short burst of native fuzzing over the HTTP JSON surface and the
## differential case generator (go test -fuzz takes one target at a time,
## hence the loop). Seeds-only regression replay already runs in `test`.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run - -fuzz FuzzFANNEndpoint -fuzztime $(FUZZTIME) ./internal/server/
	$(GO) test -run - -fuzz FuzzDistEndpoint -fuzztime $(FUZZTIME) ./internal/server/
	$(GO) test -run - -fuzz FuzzDifferentialCase -fuzztime $(FUZZTIME) ./internal/difftest/
	$(GO) test -run - -fuzz FuzzRead -fuzztime $(FUZZTIME) ./internal/phl/
	$(GO) test -run - -fuzz FuzzDistBoundMatchesDistBatch -fuzztime $(FUZZTIME) ./internal/phl/
	$(GO) test -run - -fuzz FuzzRead -fuzztime $(FUZZTIME) ./internal/gtree/
	$(GO) test -run - -fuzz FuzzKNNMatchesDijkstra -fuzztime $(FUZZTIME) ./internal/gtree/
	$(GO) test -run - -fuzz FuzzRead -fuzztime $(FUZZTIME) ./internal/ch/
	$(GO) test -run - -fuzz FuzzShardRPC -fuzztime $(FUZZTIME) ./internal/shard/

## Fault-injection and overload acceptance: the circuit breaker + chaos
## engine contracts, then the server driven through saturation, breaker
## trips, fallback, and recovery — all under the race detector.
chaos:
	$(GO) test -race -v ./internal/resil/
	$(GO) test -race -v -run 'Overload|Drain|Chaos|Ladder|Saturat|Bounded|Probe|Admission|FactoryPanic|Metrics' \
		./internal/server/ ./internal/core/

## Index-lifecycle chaos: holder swap/quarantine semantics, SIGBUS
## containment on real truncated mappings, load-path corrupters, and the
## end-to-end acceptance pair — truncate-under-map quarantine/recovery
## and the 25-swap reload storm under query load — with the race
## detector on.
chaos-load:
	$(GO) test -race -v ./internal/lifecycle/
	$(GO) test -race -v -run 'Retry|FileChaos|TransientErrors|ChaosLatencyCancel' ./internal/resil/
	$(GO) test -race -v -run 'IndexFault|ReloadFailure|SwapStorm|Reload' ./internal/server/

verify: build test vet race

## Throughput of the pooled lock-free request path vs the serialized
## baseline, across core counts.
bench-server:
	$(GO) test -run - -bench 'ServerThroughput|DistEndpoint' -cpu 1,2,4,8 \
		-benchtime 1x ./internal/server/

## Parallel index-construction speedup.
bench-build:
	$(GO) test -run - -bench BuildWorkers -benchtime 1x ./internal/gtree/ ./internal/ch/

## Machine-readable benchmark trajectory (latency quantiles + op counts
## for the headline algorithms); BENCH_PR4.json is the checked-in run.
bench-json:
	$(GO) run ./cmd/fannr-bench -json BENCH_PR4.json

## Semantic-cache benchmark: hit rate and cold/warm/latency-saved
## quantiles under a Zipf-repeat workload; BENCH_PR5.json is the
## checked-in run.
bench-cache:
	$(GO) run ./cmd/fannr-bench -cache BENCH_PR5.json

## Observability overhead guard: GD with the Stats hook disabled (nil
## pointer tests only) vs. enabled. The disabled column is the §11 budget.
bench-overhead:
	$(GO) test -run - -bench 'GDStats' -benchtime 1000x ./internal/core/

## Hot-path benchmark: batched one-to-many distance lookups vs the
## per-pair baseline for every batching engine; BENCH_PR6.json is the
## checked-in run.
bench-hotpath:
	$(GO) run ./cmd/fannr-bench -hotpath BENCH_PR6.json

## Hot-path regression guard: rerun the benchmark and fail if any IER
## engine regresses >10% against the checked-in BENCH_PR6.json on both
## batched cold p50 and same-run batched-vs-per-pair speedup (the ratio
## cancels machine-speed noise between runs).
bench-guard:
	$(GO) run ./cmd/fannr-bench -guard BENCH_PR6.json

## Index load benchmark: time-to-first-query for heap deserialization vs
## zero-copy mmap over the same v4 files, as a same-run ratio. Fails if
## mmap is not ≥10× faster per index; BENCH_PR7.json is the checked-in
## run. Builds ~225 MB of indexes in a temp dir first (a few minutes).
bench-load:
	$(GO) run ./cmd/fannr-bench -load BENCH_PR7.json -scale 0.0625

## Benchmark trend gate: rerun the headline set and diff it against the
## checked-in BENCH_PR9.json with same-run ratio normalization (each
## algorithm's p50 over its own run's geometric mean, so uniform host
## noise cancels). Fails on >10% normalized regressions or op-count
## growth on the identical workload. 16 queries per algorithm keeps the
## quantiles stable on a noisy 1-CPU host (8 is not enough: the
## heavyweight algorithms' p50 swings >2x run-to-run). Refresh the
## baseline (copy BENCH_TREND.json over BENCH_PR9.json) when a PR
## changes performance on purpose.
bench-trend:
	$(GO) run ./cmd/fannr-bench -json BENCH_TREND.json -queries 16
	$(GO) run ./cmd/fannr-bench -compare BENCH_PR9.json BENCH_TREND.json

## Sharded-serving benchmark: coordinator overhead (same-run ratio vs a
## direct single-process engine) and shard fan-out at S ∈ {1,2,4} on a
## clustered workload; fails unless the g_φ bound prunes (mean shards
## contacted < S). BENCH_PR10.json is the checked-in run.
bench-shards:
	$(GO) run ./cmd/fannr-bench -shards BENCH_PR10.json -scale 0.015625 -queries 16
