GO ?= go
# BENCHTIME bounds each benchmark's measurement time; 1x runs one iteration,
# which is enough for the JSON artifact and keeps `make bench` CI-friendly.
BENCHTIME ?= 1x
# BENCH filters which benchmarks run (a go test -bench regexp).
BENCH ?= .
# HOTPATH_BENCHTIME governs the hot-path kernel benchmarks only: 5x yields
# five samples per arm, the minimum benchjson accepts for BENCH_hotpath.json
# (single-iteration numbers are noise).
HOTPATH_BENCHTIME ?= 5x

.PHONY: ci vet build test race bench bench-hotpath bench-select bench-sim smoke-serve smoke-chaos smoke-shadow smoke-explain smoke-crash

# ci is the gate for every PR: static analysis, a full build, and the test
# suite under the race detector (trace.Collect, feature selection and the
# serving runtime fan out across goroutines).
ci: vet build race

# vet also fails when any Go file is not gofmt-formatted.
vet:
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then echo "gofmt needed:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...

# build also compiles and vets perfbench/, a module of its own that the
# root `go build ./...` never reaches, so an API change that breaks the
# benchmark harness fails here. Its binary is discarded.
build:
	$(GO) build ./...
	cd perfbench && $(GO) build -o /dev/null ./... && $(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -timeout 20m ./...

# smoke-serve exercises the long-running detection service end to end with a
# race-enabled binary: readiness, corrupt-checkpoint rollback via /healthz and
# /metrics, and clean SIGTERM drain (see scripts/serve_smoke.sh).
smoke-serve:
	bash scripts/serve_smoke.sh

# smoke-chaos is the serve-layer chaos gate: the in-process chaos harness
# (scorer panics, stalled sources, checkpoint corruption, load spikes —
# concurrently) under the race detector with a bounded wall clock, then a
# real-binary overload drive that must shed loudly while /readyz stays
# truthful (see scripts/serve_chaos.sh).
smoke-chaos:
	bash scripts/serve_chaos.sh

# bench runs the root-package benchmarks plus the telemetry micro-benchmarks
# with -benchmem, tees the text log to bench.out, and converts it into the
# machine-readable bench_telemetry.json report. It then runs the hot-path
# kernel benchmarks (dense/serial baseline vs packed/parallel, see
# docs/PERFORMANCE.md) into the BENCH_hotpath.json baseline, and the serve
# saturation benchmark (1k+ concurrent streams over replayed samples vs p99
# verdict latency and shed rate, see docs/SERVICE.md) into bench_serve.json.
# The lower-case reports are fresh, uncommitted runs; a BENCH_*.json file is
# a committed baseline.
bench: bench-hotpath
	$(GO) test -bench '$(BENCH)' -benchmem -benchtime $(BENCHTIME) -run '^$$' . ./internal/telemetry | tee bench.out
	$(GO) run ./cmd/benchjson -in bench.out -out bench_telemetry.json
	$(GO) test -bench '^BenchmarkServe(Saturation|ForensicsOverhead)$$' -benchtime $(BENCHTIME) -run '^$$' ./internal/serve | tee bench_serve.out
	$(GO) run ./cmd/benchjson -in bench_serve.out -out bench_serve.json

# bench-hotpath regenerates BENCH_hotpath.json with enough samples per arm
# (-min-iters 5) that the artifact is trustworthy enough to gate on.
# BenchmarkSelect lives with its reference kernels in internal/features and
# BenchmarkFit with its dense reference loop in internal/perceptron.
bench-hotpath:
	$(GO) test -bench '^Benchmark(Select|Fit|CrossValidate)$$' -benchmem -benchtime $(HOTPATH_BENCHTIME) -run '^$$' . ./internal/features ./internal/perceptron | tee bench_hotpath.out
	$(GO) run ./cmd/benchjson -in bench_hotpath.out -out BENCH_hotpath.json -min-iters 5

# bench-select is the selection-regression guard (CI-gated): run the Select
# benchmark fresh on the code under test and fail if the parallel-packed arm
# is not strictly faster than the serial-dense baseline, or if either arm ran
# fewer than 5 iterations. The report itself is discarded.
bench-select:
	$(GO) test -bench '^BenchmarkSelect$$' -benchmem -benchtime 5x -run '^$$' ./internal/features | \
		$(GO) run ./cmd/benchjson -min-iters 5 \
		-require-faster 'BenchmarkSelect/parallel-packed<BenchmarkSelect/serial-dense' -out /dev/null

# bench-sim is the simulator hot-path guard (CI-gated): run the paired
# snoop-filter and IQ-count benchmarks fresh and fail unless the open-addressed
# filter beats the map oracle and the running IQ count beats the window scan
# (both oracles live in the packages' _test.go files), or if any arm ran fewer
# than 5 iterations. The report itself is discarded.
bench-sim:
	$(GO) test -bench '^Benchmark(SnoopFilter|IQCount)$$' -benchmem -benchtime 5x -run '^$$' ./internal/cache ./internal/pipeline | \
		$(GO) run ./cmd/benchjson -min-iters 5 \
		-require-faster 'BenchmarkSnoopFilter/open<BenchmarkSnoopFilter/map,BenchmarkIQCount/count<BenchmarkIQCount/scan' -out /dev/null

# smoke-shadow runs a miniature continual-learning loop end to end under the
# race detector: train a seed model, serve it, shadow-retrain and promote
# through the non-regression gate, and assert the supervisor hot-reloads the
# promoted version (see scripts/shadow_smoke.sh).
smoke-shadow:
	bash scripts/shadow_smoke.sh

# smoke-explain is the verdict-forensics gate: a bounded serve run must stamp
# trace IDs, stage timings and feature attributions into the verdict log, and
# `perspectron explain` must reconstruct a recorded verdict offline with a
# bit-for-bit identical attribution — and catch a tampered log with a
# non-zero exit (see scripts/explain_smoke.sh and docs/OBSERVABILITY.md).
smoke-explain:
	bash scripts/explain_smoke.sh

# smoke-crash is the crash-safety gate: SIGKILL a real serve child mid-load in
# a loop and assert recovery every time — torn log tails repaired, the durable
# ledger balances (enqueued == records + lost) across incarnations, and
# `perspectron explain` reproduces post-recovery verdicts bit-for-bit (see
# scripts/crash_smoke.sh and docs/FAULTS.md).
smoke-crash:
	bash scripts/crash_smoke.sh
