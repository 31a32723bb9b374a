# Verification tiers. `make verify` is the full pre-merge recipe; the
# individual tiers exist so CI (or an impatient human) can run them
# separately. See README "Testing" for what each tier certifies.

GO ?= go

.PHONY: verify build test allocs vet docs-lint reach loc bench bench-gate figures microbench race race-full fuzz-smoke chaos chaos-load explain-smoke shard-smoke

## Tier 1 — compile + unit/integration tests (the seed contract).
build:
	$(GO) build ./...

## bench/ is a module of its own, outside ./..., yet it imports core,
## qcache and shard internals: both tiers build it so a refactor cannot
## break the benchmark unseen.
test:
	$(GO) test ./...
	$(GO) test -C bench ./...

## Every allocation guard three times in one process: a count that
## drifts with process state (a counter past a boxing threshold, a pool
## filled by an earlier run) shows on the second or third run only.
allocs:
	$(GO) test -count=3 -run 'Alloc' ./internal/...

## Tier 2 — static analysis; any file gofmt would rewrite fails it.
vet:
	$(GO) vet ./...
	$(GO) vet -C bench ./...
	@fmt="$$(gofmt -l .)"; test -z "$$fmt" || { echo "gofmt -l:"; echo "$$fmt"; exit 1; }

## The hand-written docs name only code that exists: every backticked
## pkg.Name / pkg.Type.Method on a repository package, every
## Test*/Benchmark*/Fuzz* name, every -flag (a binary's or go test's),
## every -exp id, every bare exported name and every benchmark metric
## (BENCHMARK.json) in README, DESIGN, EXPERIMENTS and the verify skill
## must resolve (docs_test.go).
docs-lint:
	$(GO) test -count=1 -run '^TestDocs' .

## No code that nothing runs: every package-level func, type, var and
## const, and every method, outside bench/ that no program code reaches
## (tests do not count; an interface that has the method does, for a type
## whose values the programs put in that interface) fails, unless
## reach_test.go's allowlist names it with a reason (TestReachable).
reach:
	$(GO) test -count=1 -run '^TestReachable' .

## Report-only size of the code: non-test Go lines outside bench/, flag
## registrations per binary, exported names of the fannr facade, the
## lines of the three documents that restate the design (README, DESIGN
## and the verify skill), then every non-test function over 80 lines,
## longest first. The function
## walk reads gofmt'd source, where a top-level func opens with "func "
## and ends at the first "}" in column one.
GOSRC = find . -name '*.go' ! -name '*_test.go' -not -path './bench/*' | sort
loc:
	@$(GOSRC) | xargs cat | wc -l | awk '{ print "non-test Go outside bench/: " $$1 " lines" }'
	@for d in cmd/*/; do printf '%5d flags  %s\n' $$(cat $${d}main.go | grep -cE '(flag|fs)\.(String|Bool|Int|Int64|Float64|Duration)(Var)?\(') $$d; done
	@$(GO) doc -all fannr | grep -cE '^(func|type|var|const) [A-Z]|^	[A-Z][A-Za-z0-9]* +=' | awk '{ print "fannr facade exports: " $$1 }'
	@for f in README.md DESIGN.md .claude/skills/verify/SKILL.md; do printf '%5d doc lines  %s\n' $$(wc -l < $$f) $$f; done
	@$(GOSRC) | xargs awk '/^func /{ start = FNR; name = $$0; sub(/ *\{$$/, "", name) } \
		/^}/ && start { if (FNR - start >= 80) printf "%5d  %s:%d  %s\n", FNR - start + 1, FILENAME, start, name; start = 0 }' \
		| sort -rn

## The repo's benchmark (BENCHMARK.json; bench/README.md): end-to-end
## metrics of the four named workloads, one JSON line each on stdout.
bench:
	for w in hot_ier cache_zipf algo_mix shard4; do \
		$(GO) run -C bench fannr/bench -workload $$w -seed 1 || exit 1; \
	done

## The benchmark's A/A self-test: every workload twice untraced and twice
## traced on one build and one seed; fails if an end-to-end metric differs
## beyond its bound or a count/bytes metric does not repeat exactly.
bench-gate:
	$(GO) run -C bench fannr/bench -aa

## Regenerate the paper's §VI tables and figures (EXPERIMENTS.md quotes
## results_full.txt).
figures:
	$(GO) run ./cmd/fannr-bench -exp all > results_full.txt

## In-process microbenchmarks bench/ has no rung for: pooled lock-free
## request path vs the serialized baseline across core counts, parallel
## index-construction speedup, GD with the Stats hook disabled (nil
## pointer tests only — the DESIGN §15 budget) vs enabled, and the bind of
## Q kept in view: a PHL / IER-PHL evaluation as a request pays for it,
## and IER-PHL's whole dispatch over algo_mix's d × M × φ grid against
## the Euclidean restriction it replaced (evals/op says how few
## evaluations share one bind; φ = 0.1 is where restriction is not behind).
## Four price the request-side stage: the /fann scanner against
## encoding/json on hot_ier- and shard4-shaped bodies, one sort per
## set against the map + sort.Slice sequence it replaced, Validate with
## the set registry (no registry / first sight / hit at 128, 169 and 844
## ids, 64 permutations in rotation), and one shard call's two bodies
## appended and scanned against encoding/json (211 + 8 ids), then
## fannr-server's reply at cache_zipf's shapes (1 or 5 answers of 64 or
## 128 ids) appended against json.Encoder. Then 64 expansion lanes on
## pooled label tables against the map-backed lane they replaced
## (allocs/op). The last two are the evidence for core's boundHubs: GD
## through Dispatch at the three shapes bench/ serves through PHL with the
## bound walk stopped after 2, 4 and 8 hubs against bare Dist
## (abandoned/eval is the share of evaluations the bounds ended), and
## what one candidate costs on the bound path — rejected after the
## prefix, completed through prefix + resume, or walked in full. Beside
## it, the two rows every PHL request is priced by and bench/ has no rung
## for: the bind of one Q at hot_ier's shape (entries/bind is Σ_q |L(q)|)
## and the label build itself on NW 1/64 (entries/node, and how much of
## it went into sampling trees for the hub order). Last, the searches
## that keep their labels in pqueue.IndexedHeap, which bench/ times only
## inside whole requests and index builds: the heap alone on a Dijkstra
## push/decrease/pop mix, INE's and A*'s g_φ evaluation, and G-tree's
## one distance kernel, Dist (DistBatch on one target) against DistBatch
## over a Q.
microbench:
	$(GO) test -run - -bench 'ServerThroughput|DistEndpoint' -cpu 1,2,4,8 \
		-benchtime 1x ./internal/server/
	$(GO) test -run - -bench BuildWorkers -benchtime 1x ./internal/gtree/
	$(GO) test -run - -bench 'GDStats' -benchtime 1000x ./internal/core/
	$(GO) test -run - -bench 'GPhiPHLBound|GPhiIERPHLBound|IERPHLRegimes' -cpu 1 -benchtime 500x .
	$(GO) test -run - -bench DecodeFANN -cpu 1 -benchtime 2000x ./internal/wire/
	$(GO) test -run - -bench 'Canonicalise|ValidateRegistry' -cpu 1 -benchtime 2000x ./internal/core/
	$(GO) test -run - -bench 'ShardCodec|FANNReply' -cpu 1 -benchtime 2000x ./internal/wire/
	$(GO) test -run - -bench 'ExpanderLanes' -cpu 1 -benchtime 200x .
	$(GO) test -run - -bench 'GDAbandon/(shard4|dense|sparse|gtree)' -cpu 1 -benchtime 300x ./internal/core/
	$(GO) test -run - -bench 'GDAbandon/ine' -cpu 1 -benchtime 10x ./internal/core/
	$(GO) test -run - -bench 'DistBoundPrefix|BindTargets' -cpu 1 -benchtime 20000x ./internal/phl/
	$(GO) test -run - -bench 'Build$$' -cpu 1 -benchtime 3x ./internal/phl/
	$(GO) test -run - -bench 'IndexedHeapDijkstraPattern' -cpu 1 -benchtime 20000x ./internal/pqueue/
	$(GO) test -run - -bench 'GPhiINE$$|GPhiAStar$$' -cpu 1 -benchtime 100x .
	$(GO) test -run - -bench 'Dist$$' -cpu 1 ./internal/gtree/

## Tier 3 — race detector over the concurrency-bearing packages
## (engine pools, HTTP server, parallel index builds, workload draws) plus
## the cross-engine differential harness. Heavy cases are trimmed via
## -short; drop it for the full hammer.
race: explain-smoke shard-smoke
	$(GO) test -race -short ./internal/server/... ./internal/core/... \
		./internal/resil/... ./internal/gtree/... \
		./internal/par/... ./internal/workload/... ./internal/difftest/... \
		./internal/obs/... ./internal/qcache/... ./internal/lifecycle/... \
		./internal/phl/... ./internal/sp/... ./internal/rtree/... \
		./internal/shard/... ./internal/wire/...

## Explain/observability smoke under the race detector: the eight-engine
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
## hence one line each). Seeds-only regression replay already runs in
## `test`. Each line first lists its target and fails when the package no
## longer has it: `go test -fuzz` on a missing target still prints ok.
FUZZTIME ?= 10s
fuzz = $(GO) test -list '^$(1)$$' $(2) | grep -qx '$(1)' \
	|| { echo "fuzz-smoke: $(2) has no $(1)"; exit 1; }; \
	$(GO) test -run - -fuzz '^$(1)$$' -fuzztime $(FUZZTIME) $(2)
fuzz-smoke:
	$(call fuzz,FuzzFANNEndpoint,./internal/server/)
	$(call fuzz,FuzzDistEndpoint,./internal/server/)
	$(call fuzz,FuzzDecodeFANN,./internal/wire/)
	$(call fuzz,FuzzShardBodies,./internal/wire/)
	$(call fuzz,FuzzSetRegistry,./internal/core/)
	$(call fuzz,FuzzDifferentialCase,./internal/difftest/)
	$(call fuzz,FuzzRead,./internal/phl/)
	$(call fuzz,FuzzDistBoundMatchesDistBatch,./internal/phl/)
	$(call fuzz,FuzzDistBelow,./internal/core/)
	$(call fuzz,FuzzIERBoundAdmissible,./internal/core/)
	$(call fuzz,FuzzRead,./internal/gtree/)
	$(call fuzz,FuzzKNNMatchesDijkstra,./internal/gtree/)
	$(call fuzz,FuzzExpanderTable,./internal/sp/)
	$(call fuzz,FuzzShardRPC,./internal/shard/)

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

verify: build test allocs vet docs-lint reach race chaos-load loc
