# Mirrors .github/workflows/ci.yml so contributors can run the exact CI
# gate locally with `make check`.

GO ?= go

.PHONY: check build fmt-check fmt vet loc test perfbench-test fuzz race bench bench-guard bench-guard-train bench-guard-sparse bench-guard-dist bench-parallel bench-pairs bench-telemetry cover dist-e2e serve-smoke serve-chaos serve-load clean

# bench-parallel is intentionally NOT part of check: it asserts the W=4
# executor beats W=1 on wall time, which needs >= 4 real cores — run it
# explicitly on multi-core hardware (CI's bench-parallel job does).
check: build fmt-check vet loc test perfbench-test fuzz race bench bench-guard bench-guard-train bench-guard-sparse bench-guard-dist cover dist-e2e serve-smoke serve-chaos serve-load

build:
	$(GO) build ./...

fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needs to be run on:"; echo "$$out"; exit 1; \
	fi

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

# Size figures: non-test Go lines, internal/ package count and TrainE's
# length; fails if the non-test lines reach 20,000 or TrainE reaches 150
# lines.
loc:
	./scripts/loc.sh

test:
	$(GO) test ./...

# The benchmark under perfbench/ is its own module (replace dropback => ..),
# so the root build, vet and test never compile it; this keeps a facade or
# internal change from breaking the benchmark unnoticed.
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Short coverage-guided runs of every committed fuzzer: the byte decoders
# (checkpoint, dist wire and partial-sum payload, sparse artifact, serve
# reload and predict request,
# IDX and CIFAR-10 readers) and the shard executor's sample split, mirroring
# the CI fuzz smoke steps. go test fuzzes one target per run, so packages
# with several fuzzers take an anchored -fuzz pattern each.
fuzz:
	$(GO) test -run=Fuzz -fuzz=FuzzRead -fuzztime=10s ./internal/checkpoint
	$(GO) test -run=Fuzz -fuzz='^FuzzReadFrame$$' -fuzztime=10s ./internal/dist
	$(GO) test -run=Fuzz -fuzz='^FuzzParsePartial$$' -fuzztime=10s ./internal/dist
	$(GO) test -run=Fuzz -fuzz=FuzzRead -fuzztime=10s ./internal/sparse
	$(GO) test -run=Fuzz -fuzz='^FuzzReloadArtifact$$' -fuzztime=10s ./internal/serve
	$(GO) test -run=Fuzz -fuzz='^FuzzPredictRequest$$' -fuzztime=10s ./internal/serve
	$(GO) test -run=Fuzz -fuzz='^FuzzReadIDXImages$$' -fuzztime=10s ./internal/data
	$(GO) test -run=Fuzz -fuzz='^FuzzReadIDXLabels$$' -fuzztime=10s ./internal/data
	$(GO) test -run=Fuzz -fuzz='^FuzzReadCIFAR10Binary$$' -fuzztime=10s ./internal/data
	$(GO) test -run=Fuzz -fuzz='^FuzzShardRanges$$' -fuzztime=10s .

# Repo-wide: the data-parallel training executor put goroutines in the
# trainer hot path, so every package that touches a model now runs under
# the race detector (this includes the W={1,2,4} bit-identity equivalence
# suite at the repo root). The raised timeout covers the experiments
# package, which exceeds go test's 10m default under race on slow runners.
race:
	$(GO) test -race -timeout 1800s ./...

# One iteration per benchmark: a smoke test that every benchmark still runs.
bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' ./...

# Allocation regression gate: the kernel benchmarks must stay under the
# allocs/op ceilings committed in BENCH_kernels.json.
bench-guard:
	$(GO) test -bench 'BenchmarkConvTrainStep|BenchmarkMatMul$$|BenchmarkIm2Col' \
		-benchmem -benchtime 10x -run '^$$' . > bench_guard.out
	$(GO) run ./cmd/benchguard -baseline BENCH_kernels.json -input bench_guard.out

# Training-step gate: BenchmarkTrainStep (sequential + shard-parallel
# executor), BenchmarkSparseTrainStep and BenchmarkDropBackUpdate (the
# DropBack engine alone, live and frozen) must stay under the allocs/op
# ceilings and within max_ns_ratio of the ns/op baselines in
# BENCH_train.json.
bench-guard-train:
	$(GO) test -bench 'BenchmarkTrainStep|BenchmarkSparseTrainStep|BenchmarkDropBackUpdate' -benchmem -benchtime 20x \
		-run '^$$' . > bench_train.out
	$(GO) run ./cmd/benchguard -baseline BENCH_train.json -input bench_train.out

# Sparse-native inference gate: BenchmarkSparseForward (compute straight
# off the CSR artifact) must stay allocation-free on the MLP path and under
# the dense path's alloc ceilings, per BENCH_sparse.json. Pinned to
# GOMAXPROCS=1, the configuration the baseline records: on more cores the
# ParallelChunks fan-out adds goroutine and closure allocations per forward.
bench-guard-sparse:
	GOMAXPROCS=1 $(GO) test -bench 'BenchmarkSparseForward|BenchmarkDenseForward' \
		-benchmem -benchtime 20x -run '^$$' ./internal/sparse > bench_sparse.out
	$(GO) run ./cmd/benchguard -baseline BENCH_sparse.json -input bench_sparse.out

# Multi-node training-step gate: BenchmarkDistTrainStep (2-node loopback
# mesh, frozen O(k) exchange) and BenchmarkDistTrainStepLive (the dense
# rank chain) must stay under their alloc ceilings, and their wire-B/step
# metrics must equal StepFrameBytes and PartialFrameBytes exactly, per
# BENCH_dist.json.
bench-guard-dist:
	$(GO) test -bench BenchmarkDistTrainStep -benchmem -benchtime 20x \
		-run '^$$' . > bench_dist.out
	$(GO) run ./cmd/benchguard -baseline BENCH_dist.json -input bench_dist.out

# Multi-core speedup gate (mirrors CI's bench-parallel job): at
# GOMAXPROCS=4 the batched shard executor at W=4 must beat the sequential
# W=1 path on wall time. Requires >= 4 real cores — meaningless (and
# failing) on smaller machines, so it is not part of `make check`.
bench-parallel:
	GOMAXPROCS=4 $(GO) test -bench BenchmarkTrainStep -benchmem -benchtime 20x \
		-run '^$$' . > bench_parallel.out
	$(GO) run ./cmd/benchguard -baseline '' -input bench_parallel.out \
		-assert-faster 'BenchmarkTrainStep/workers=4<BenchmarkTrainStep/workers=1'

# Paired perfbench comparison of the working tree against BASE (default
# HEAD) on WORKLOAD, PAIRS alternating pairs (default 10): medians,
# quartiles and win counts per end-to-end metric. Not part of check: one
# workload takes about ten minutes.
BASE ?= HEAD
WORKLOAD ?= train-dense
PAIRS ?= 10
bench-pairs:
	./scripts/bench_pairs.sh $(BASE) $(WORKLOAD) $(PAIRS)

# Repo-wide statement coverage vs the committed floor (enforcing).
cover:
	./scripts/coverage_check.sh

# Multi-node training e2e: two real OS processes over loopback TCP must
# save checkpoints byte-identical to a sequential run, dense and frozen.
dist-e2e:
	./scripts/dist_e2e.sh

# End-to-end serving smoke: train -> export artifact -> dropback-serve ->
# HTTP predict round trip -> live reload to a retrained artifact (corrupt
# artifacts rejected) -> graceful SIGTERM drain.
serve-smoke:
	./scripts/serve_smoke.sh

# Fault-injection e2e under the race detector: reload under load, corrupt
# artifact rejection, canary auto-rollback, tier shedding with a stalled
# replica — plus a short run of the reload-corruption fuzzer.
serve-chaos:
	$(GO) test -race -timeout 900s ./internal/serve ./internal/faults ./internal/loadgen
	$(GO) test -run=Fuzz -fuzz='^FuzzReloadArtifact$$' -fuzztime=15s ./internal/serve

# Serving performance gate: BenchmarkServePredict allocs plus open-loop
# loadgen tier curves (interactive p50/p99 ceilings, shed budgets, strict
# interactive<best-effort shed ordering) against BENCH_serve.json.
serve-load:
	./scripts/serve_load.sh

# The CI telemetry export: a short DropBack run that emits the JSONL stream
# and the BENCH_telemetry.json benchmark-trajectory artifact.
bench-telemetry:
	$(GO) run ./cmd/dropback -model mnist100 -method dropback \
		-budget 10000 -epochs 3 -samples 800 \
		-telemetry telemetry.jsonl -telemetry-summary \
		-bench-out BENCH_telemetry.json

clean:
	rm -f telemetry.jsonl BENCH_telemetry.json bench_guard.out bench_train.out bench_sparse.out bench_dist.out bench_parallel.out cpu.pprof heap.pprof
