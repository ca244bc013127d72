GO ?= go

.PHONY: build vet test race race-sched race-device race-cl race-service short bench-admission bench-engine bench-smoke figures lint trace-smoke trace-golden serve-smoke examples-smoke engine-smoke fuzz-smoke verify

# Per-target budget for the fuzz smoke pass.
FUZZTIME ?= 30s

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

short:
	$(GO) test -short ./...

test:
	$(GO) test ./...

# The parallel engine executes work-groups concurrently; the race
# detector must stay green. -short skips only the paper-scale shape
# regression (already covered by `make test`), which under the race
# detector outlasts the default test timeout on small hosts.
race:
	$(GO) test -race -short -timeout 30m ./...

# The command-DAG scheduler is the concurrency hot spot: run its full
# test suite (not -short) under the race detector on every verify.
race-sched:
	$(GO) test -race -count=1 ./internal/sched

# The work-group fan-in hands streamed traces between goroutines while
# the group is still executing: run internal/device's full suite
# repeatedly under the race detector on every verify.
race-device:
	$(GO) test -race -count=3 ./internal/device

# A launch-memo hit replays retained trace chunks while other contexts
# record and evict against the shared budget, and a queue's enqueues
# switch between running inline and on the context scheduler: run the
# memo and command-queue tests repeatedly under the race detector on
# every verify.
race-cl:
	$(GO) test -race -count=3 -run 'Memo|Queue|Async|Close|Pool' ./internal/cl

# malid admits each job on its own goroutine, chained behind its
# tenant's previous job, and Close fails the waiting ones while the
# running ones finish: run the shutdown, tenant and concurrency tests
# repeatedly under the race detector on every verify.
race-service:
	$(GO) test -race -count=3 -run 'Close|Tenant|Concurrent|Quota' ./internal/service

# Cheap benchmark smoke for CI: one iteration of the VM engine
# benchmarks under both engines, of the streamed-group benchmark (one
# group whose trace streams into the CPU timing model, at 1 and 2
# workers), of the launch-memo benchmark (one GPU launch executed
# and recorded against replayed) and of the cold-admission benchmark
# (compile, analyzer gate and seeded transform pipeline), so a broken
# bench harness fails verify rather than going unnoticed.
bench-smoke:
	$(GO) test -run xxx -bench BenchmarkEngine -benchtime 1x ./internal/vm >/dev/null
	$(GO) test -run xxx -bench BenchmarkStreamedGroup -benchmem -benchtime 1x ./internal/cpu >/dev/null
	$(GO) test -run xxx -bench BenchmarkLaunchMemo -benchmem -benchtime 1x ./internal/cl >/dev/null
	$(GO) test -run xxx -bench BenchmarkColdAdmission -benchmem -benchtime 1x ./internal/service/progcache >/dev/null

# Layer-level cost of a cold optimizing admission: compile, the
# analyzer gate and the transform pipeline seeded with the gate's
# dataflow facts, over one cycle of the nine-benchmark job mix, plus
# one sub-benchmark per mix kernel, with allocation counts. This is
# the timed run; bench-smoke runs one iteration in verify.
BENCHTIME ?= 1s
bench-admission:
	$(GO) test -run xxx -bench BenchmarkColdAdmission -benchmem -benchtime $(BENCHTIME) ./internal/service/progcache

# Layer-level cost of VM execution: one work-group per iteration of
# each engine benchmark kernel (multiply-accumulate loop, strided sum,
# barrier reduction, CSR-style gather) under the interpreter and the
# compiled engine, ten times over, so a change to either engine's hot
# path has before/after distributions to compare. bench-smoke runs one
# iteration in verify.
bench-engine:
	$(GO) test -run xxx -bench BenchmarkEngine -benchmem -count 10 -benchtime $(BENCHTIME) ./internal/vm

# Static checks: Go hygiene, the repository self-lint (no unexplained
# map iteration or time.Now in deterministic paths — cmd/repolint),
# and the kernel linter over every tracked .cl file. The golden corpus
# under testdata/analysis is excluded — it intentionally contains
# positive findings and is locked down by the analyzer's golden tests
# instead. The nine benchmarks' kernels are embedded in Go and linted
# by TestKernelsLintClean.
lint: vet
	@fmtout="$$(gofmt -l . 2>/dev/null)"; \
	if [ -n "$$fmtout" ]; then echo "gofmt needed on:"; echo "$$fmtout"; exit 1; fi
	$(GO) run ./cmd/repolint
	@for f in $$(git ls-files '*.cl' | grep -v '^testdata/analysis/' | grep -v '^internal/clc/opt/testdata/'); do \
		echo "clc -analyze -Werror $$f"; \
		$(GO) run ./cmd/clc -analyze -Werror -D REAL=float "$$f" || exit 1; \
	done

figures:
	$(GO) run ./cmd/figures

# Observability smoke test: run one small benchmark with trace +
# metrics export and validate the JSON with tracecheck. Scheduled
# (multi-queue) traces are covered by trace-golden.
trace-smoke:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) run ./cmd/malisim -bench vecop -scale 0.05 -trace "$$tmp/trace.json" -metrics-out "$$tmp/metrics.json" >/dev/null && \
	$(GO) run ./cmd/tracecheck -metrics "$$tmp/metrics.json" "$$tmp/trace.json"

# Build and run every example (the main callers of Platform.Measure);
# a non-zero exit fails verify.
examples-smoke:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	for ex in $$(ls examples); do \
		$(GO) build -o "$$tmp/$$ex" ./examples/$$ex && "$$tmp/$$ex" >/dev/null || exit 1; \
	done

# MALIGO_ENGINE is the one engine switch: malitune's JSON reports must
# be byte-identical on the default engine and on the reference
# interpreter, and every command must exit 2 on a value that names no
# engine. Each command line below exits 0 (malid: 1, it cannot listen)
# on a valid engine, so only the engine check can make it exit 2.
engine-smoke:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && unset MALIGO_ENGINE && \
	for c in malitune malisim figures malid; do $(GO) build -o "$$tmp/$$c" ./cmd/$$c || exit 1; done && \
	for b in dmmm vecop; do \
		"$$tmp/malitune" -bench $$b -scale 0.05 -no-dvfs -json >"$$tmp/$$b.default.json" && \
		MALIGO_ENGINE=interp "$$tmp/malitune" -bench $$b -scale 0.05 -no-dvfs -json >"$$tmp/$$b.interp.json" && \
		cmp "$$tmp/$$b.default.json" "$$tmp/$$b.interp.json" || exit 1; \
	done && \
	for run in "malitune -list" "malisim -list" "figures -fig 2a -bench vecop -scale 0.01" "malid -addr no-such-address"; do \
		set -- $$run; c=$$1; shift; \
		MALIGO_ENGINE=intrep "$$tmp/$$c" "$$@" >/dev/null 2>&1; rc=$$?; \
		if [ $$rc -ne 2 ]; then echo "$$c: exit $$rc on MALIGO_ENGINE=intrep, want 2"; exit 1; fi; \
	done

# Serving-layer smoke test: drive an in-process malid daemon with the
# nine-benchmark mix over real HTTP under the race detector. The
# driver exits non-zero on any failed job, any served body that is not
# byte-identical to the in-process run, or a repeat-traffic cache hit
# rate at or below 90%.
serve-smoke:
	$(GO) run -race ./cmd/malid-load -n 360 -c 8 -tenants 3 -min-hit-rate 0.9 >/dev/null

# Validate the committed golden multi-queue trace (two out-of-order
# queues with cross-queue wait-lists; locked byte-exact by
# TestTraceMultiQueueGolden).
trace-golden:
	$(GO) run ./cmd/tracecheck internal/cl/testdata/trace_multiqueue.json

# Short native-fuzzing pass over every fuzz target ($(FUZZTIME) each):
# the engine differential (interp oracle vs compiled),
# the command-DAG scheduler vs its serial oracle, the profile algebra
# and the kernel analyzer.
fuzz-smoke:
	$(GO) test -run xxx -fuzz '^FuzzEngineEquivalence$$' -fuzztime $(FUZZTIME) ./internal/vm
	$(GO) test -run xxx -fuzz '^FuzzCommandDAG$$' -fuzztime $(FUZZTIME) ./internal/sched
	$(GO) test -run xxx -fuzz '^FuzzProfileAddCommutes$$' -fuzztime $(FUZZTIME) ./internal/vm
	$(GO) test -run xxx -fuzz '^FuzzAnalyze$$' -fuzztime $(FUZZTIME) ./internal/clc/analysis
	$(GO) test -run xxx -fuzz '^FuzzSolver$$' -fuzztime $(FUZZTIME) ./internal/clc/analysis/dataflow
	$(GO) test -run xxx -fuzz '^FuzzTransformEquivalence$$' -fuzztime $(FUZZTIME) ./internal/clc/opt
	$(GO) test -run xxx -fuzz '^FuzzAutotune$$' -fuzztime $(FUZZTIME) ./internal/tune

# Full verification: what CI runs. The -short race pass includes the
# engine differential cross-section; `make test` runs the full
# matrix (interp oracle vs compiled) plus the IR dump snapshot tests.
verify: build lint test race race-sched race-device race-cl race-service trace-smoke trace-golden serve-smoke examples-smoke engine-smoke bench-smoke fuzz-smoke
