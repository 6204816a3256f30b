GO ?= go
BENCH_OUT ?= BENCH_2

# Regression-gate knobs: the stable micro set measured by bench-gate, the
# committed baseline it compares against, and the per-metric threshold in
# percent (applies to ns/op, allocs/op and — for benchmarks with MxKxN dims
# in the name — GFLOP/s; min-of-count filters noise).
BENCH_FILTER ?= 'BenchmarkGNNEncode|BenchmarkMatMul$$|BenchmarkMetisPartition|BenchmarkMetisAdversarial|BenchmarkAllocateMultilevel|BenchmarkCoarsenAllocate$$|BenchmarkCoarsenAllocateMixed|BenchmarkAllocateRanked|BenchmarkSimulate$$|BenchmarkTrainEpoch|BenchmarkServe'
BENCH_BASELINE ?= BENCH_BASELINE.json
BENCH_THRESHOLD ?= 10

# Fixed heap target for measured benchmark runs. The huge (~100k-node)
# encode benchmark recycles hundreds of MB through the tensor arena, and
# without a pinned GOMEMLIMIT its B/op numbers swing with whatever heap
# size the previous tests left behind.
BENCH_MEMLIMIT ?= 2GiB

.PHONY: build test check race vet fmt lint loc quality fuzz bench bench-smoke bench-gate bench-baseline bench-huge bench-kernels benchdiff curve chaos serve-smoke serve-bench perfbench-smoke

build:
	$(GO) build ./...

# Tier-1 gate: the repo must always pass this.
test: build
	$(GO) test ./...

# The second vet type-checks the portable build, which has no assembly
# (internal/tensor/simd_other.go), so it keeps compiling; the amd64 vet
# checks the assembly's frame offsets against its Go declarations.
vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./...

# Formatting gate: fail when any tracked Go file is not gofmt-clean.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Static gate: formatting + vet in one target.
lint: fmt vet

# Line counts of the tracked Go outside perfbench/: non-test code (the
# figure each change reports in CHANGES.md), then tests.
loc:
	@echo "non-test Go lines: $$(git ls-files '*.go' ':!:*_test.go' ':!:perfbench/*' | xargs cat | wc -l)"
	@echo "test Go lines:     $$(git ls-files '*_test.go' ':!:perfbench/*' | xargs cat | wc -l)"

race:
	$(GO) test -race ./...

# Chaos gate: the runtime's drift-timeline replay (crashes, link classes,
# surges), the drift re-allocation and the panic-isolating fan-out
# (internal/parallel) suites under the race detector, twice, so flaky
# timing in the wall-clock replay or a data race in the re-allocation
# loop fails loudly. Then the tests that reach
# the shared forward-pass binder pool or the tensor
# arena from several goroutines (offline passes, served snapshot passes,
# concurrent cache misses, mixed-size arena traffic, Metis's pooled
# workspaces), ten times each, so a pool race or a poisoned binder fails
# loudly too. Then one REINFORCE step of identical samples on four
# scorers, twenty times: its cache split must not depend on how the
# scorers interleave. Last, the learned placers' batched training, ten
# times: their LSTM and attention layers run on concurrent replicas bound
# to one parameter snapshot.
chaos:
	$(GO) test -race -count=2 ./internal/runtime/ ./internal/realloc/ ./internal/parallel/
	$(GO) test -race -count=10 -run 'TestProbsIntoConcurrent|TestProbsIntoAfterPanic|TestConcurrentAllocateRace|TestConcurrentMatchesSerial|TestArenaConcurrentGetPut|TestPartitionConcurrentMatchesSerial' ./internal/core/ ./internal/serve/ ./internal/tensor/ ./internal/metis/
	$(GO) test -race -count=20 -run 'TestStepScoresEachDistinctDecisionOnce' ./internal/rl/
	$(GO) test -race -count=10 -run 'TestBatchedTrainingDeterministicAcrossWorkers/(gdp|graph-enc-dec)$$' ./internal/rl/

# Quality gate: train and score the quick Table I, Fig. 5, Fig. 6, Fig. 8,
# Table II, drift and robustness-sim experiments (~20 s) and diff their
# tables against the committed golden. The output is the same at any
# GOMAXPROCS, so a change that keeps every placement and reward
# bit-identical passes untouched; one that moves placements fails here and
# must re-record QUALITY_GOLDEN.txt and say why. The timing line is
# dropped before the diff.
quality:
	$(GO) run ./cmd/experiments -run table1,fig5,fig6,fig8,table2,drift,robustness-sim -budget quick -scale 0.4 -quiet > .quality.txt
	grep -v '^completed ' .quality.txt | diff QUALITY_GOLDEN.txt -

# Fuzz gate: ten seconds each of go's native fuzzer on POST /allocate, the
# one decoder of untrusted bytes, and on its canonical fast path. No input
# may panic the handler or answer 5xx, and a 200 must carry an in-range
# device per operator and a relative throughput in [0, 1]. The fast path
# must decline a body or decode it exactly as encoding/json does. A
# failing input lands in internal/serve/testdata/fuzz/ and replays under
# `go test` from then on. The fuzzer minimizes every new interesting input
# for up to -fuzzminimizetime (60 s by default); inputs grown from the
# Medium seed are tens of KB, so the default spends the whole run
# minimizing one of them, and 2 s keeps the workers fuzzing.
fuzz:
	$(GO) test -run='^$$' -fuzz='^FuzzAllocateRequest$$' -fuzztime=10s -fuzzminimizetime=2s ./internal/serve/
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeAllocateRequest$$' -fuzztime=10s -fuzzminimizetime=2s ./internal/serve/

# One iteration of every benchmark: catches benchmarks that panic or
# regress into non-termination without paying for a full measurement run.
bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x .

# Observability smoke: a tiny seeded training run must emit a parseable
# JSONL training curve with strictly increasing steps (curvecheck exits
# non-zero otherwise).
curve:
	$(GO) run ./cmd/coarsenrl -mode train -setting small -scale 0.1 \
		-pretrain 0 -epochs 1 -quiet -curve-out .curve.jsonl
	$(GO) run ./cmd/curvecheck .curve.jsonl

# Serving smoke: boot the real allocserve wiring on :0, allocate a
# generated graph over HTTP (cold + cached), hot-swap via /reload,
# scrape /metrics, and drive the overload path (429 + Retry-After +
# recovery, access log, trace spans).
serve-smoke:
	$(GO) test -count=1 -run 'TestAllocServeSmoke|TestAllocServeShedding' ./cmd/allocserve/

# Benchmark-harness smoke: perfbench is its own module built against this
# one (it imports autodiff, core, gnn and nn), so neither `go build ./...`
# nor `go test ./...` compiles it. Vet it and run its tests so an API
# change here cannot break the benchmark unnoticed. Writes only under
# .bench_build/.
perfbench-smoke:
	$(GO) -C perfbench vet ./... && $(GO) -C perfbench test ./...

# Serving regression bench: the end-to-end service benchmarks (cold and
# cached paths under 1/8/64 concurrent clients) diffed against the
# committed baseline.
serve-bench:
	$(GO) test -run=NONE -bench=BenchmarkServe -benchmem -count=3 . > .bench_serve.txt
	$(GO) run ./cmd/benchjson .bench_serve.txt > .bench_serve.json
	$(GO) run ./cmd/benchjson -diff -threshold $(BENCH_THRESHOLD) $(BENCH_BASELINE) .bench_serve.json

# Full pre-merge check: lint (formatting + vet) + race-detected tests +
# chaos suites + quality gate + fuzz gate + benchmark smoke run + observability smoke +
# serving smoke + benchmark-harness smoke + huge-graph scaling gate +
# regression gate against the committed baseline.
check: lint race chaos quality fuzz bench-smoke curve serve-smoke perfbench-smoke bench-huge bench-gate

# Regression gate: measure the stable micro set (min of -count=3) and fail
# when any benchmark regressed more than BENCH_THRESHOLD percent in ns/op,
# B/op or allocs/op relative to the committed baseline.
bench-gate:
	GOMEMLIMIT=$(BENCH_MEMLIMIT) $(GO) test -run=NONE -bench=$(BENCH_FILTER) -benchmem -count=3 . > .bench_gate.txt
	$(GO) run ./cmd/benchjson .bench_gate.txt > .bench_gate.json
	$(GO) run ./cmd/benchjson -diff -threshold $(BENCH_THRESHOLD) $(BENCH_BASELINE) .bench_gate.json

# Scaling gate: the ~100k-node layered-graph encode alone, under the pinned
# GOMEMLIMIT, diffed against the committed baseline. Fast to iterate on
# when only large-graph behaviour changed (bench-gate measures it too).
bench-huge:
	GOMEMLIMIT=$(BENCH_MEMLIMIT) $(GO) test -run=NONE -bench='BenchmarkGNNEncode/huge' -benchmem -count=3 . > .bench_huge.txt
	$(GO) run ./cmd/benchjson .bench_huge.txt > .bench_huge.json
	$(GO) run ./cmd/benchjson -diff -threshold $(BENCH_THRESHOLD) $(BENCH_BASELINE) .bench_huge.json

# Refresh the committed gate baseline (run on a quiet machine, then commit).
bench-baseline:
	GOMEMLIMIT=$(BENCH_MEMLIMIT) $(GO) test -run=NONE -bench=$(BENCH_FILTER) -benchmem -count=3 . > .bench_gate.txt
	$(GO) run ./cmd/benchjson .bench_gate.txt > $(BENCH_BASELINE)

# Compute-kernel microbenchmarks with GFLOP/s: the blocked MatMul variants
# plus the transposed/fused kernels behind the autodiff tape ops.
bench-kernels:
	$(GO) test -run=NONE -bench='BenchmarkMatMul$$|BenchmarkKernels' -benchmem -count=3 . | tee .bench_kernels.txt
	$(GO) run ./cmd/benchjson .bench_kernels.txt > .bench_kernels.json

# Ad-hoc comparison of two recorded JSON reports:
#   make benchdiff BENCH_PREV=BENCH_1.json BENCH_NEW=BENCH_2.json
BENCH_PREV ?= BENCH_1.json
BENCH_NEW ?= BENCH_2.json
benchdiff:
	$(GO) run ./cmd/benchjson -diff -threshold $(BENCH_THRESHOLD) $(BENCH_PREV) $(BENCH_NEW)

# Measured benchmark run. Writes the raw benchstat-consumable text to
# $(BENCH_OUT).txt and a structured JSON report (same data, plus the raw
# lines) to $(BENCH_OUT).json. Compare two runs with:
#   make bench BENCH_OUT=before ... make bench BENCH_OUT=after
#   benchstat before.txt after.txt
bench:
	$(GO) test -bench=. -benchmem -run=^$$ . | tee $(BENCH_OUT).txt
	$(GO) run ./cmd/benchjson $(BENCH_OUT).txt > $(BENCH_OUT).json
