# Development targets. `make verify` is the PR gate: build, gofmt, vet, the
# full test suite under the race detector, a determinism spot-check that
# a parallel figure run (-j 8) renders byte-identically to a serial one
# (-j 1) in both table and JSON formats, and one run of every example.

GO ?= go

# Benchmark knobs: the selection and iteration count feed bench-json and
# bench-compare; BENCH_THRESHOLD is the regression gate in percent.
# BENCHCOUNT repeats each benchmark and benchjson keeps every metric's
# minimum across repeats; the minimum-of-3 default is what makes the
# bench-compare gate usable on machines with noisy neighbours, where a
# single draw can swing ±10% or more.
BENCH ?= Fig|EngineCycle|TraceReplay|Tournament|FetchRename|WarmStoreHit|StoreGetPut|Recording
BENCHTIME ?= 10x
BENCHCOUNT ?= 3
BENCH_OUT ?= BENCH_results.json
# The gate must clear the machine's same-tree noise floor: back-to-back
# bench-json runs of one unchanged tree on a 1-vCPU shared host differ by
# up to ~15% on the shortest benchmarks even with the min-of-3 settings
# above, so a tighter threshold flags identical code.
BENCH_THRESHOLD ?= 20

# profile: which figure the `make profile` target captures, and where the
# pprof data lands.
PROFILE_FIG ?= 8
PROFILE_DIR ?= /tmp

.PHONY: all build test vet fmt-check lint race verify bench bench-json bench-compare determinism examples serve-smoke fuzz-smoke perfbench-test cover profile clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi
	@echo "fmt-check: OK"

# lint: the static-analysis gate — gofmt formatting plus every go vet
# analyzer. The repo is dependency-free by policy, so the gate uses only
# the toolchain's own analyzers (no staticcheck/golangci-lint binaries to
# install or version-pin); CI runs this as its own job.
lint: fmt-check vet
	@echo "lint: OK"

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=RunnerMultiFigure -benchtime=3x -run='^$$'

# bench-json: run the figure, scheduler-core and trace-recording benchmarks
# and snapshot their metrics as structured JSON, so the perf trajectory has
# machine-readable data points. -p 1 keeps the package test binaries from
# running concurrently, which would corrupt each other's timings.
bench-json:
	$(GO) build -o /tmp/loadsched-benchjson ./cmd/benchjson
	$(GO) test -p 1 -bench='$(BENCH)' -benchtime=$(BENCHTIME) -count=$(BENCHCOUNT) -benchmem -run='^$$' . ./internal/ooo ./internal/trace | /tmp/loadsched-benchjson -o $(BENCH_OUT)

# bench-compare: run the benchmarks fresh and diff them against the
# committed baseline; exits non-zero on a regression beyond
# BENCH_THRESHOLD percent.
bench-compare:
	$(GO) build -o /tmp/loadsched-benchdiff ./cmd/benchdiff
	$(MAKE) bench-json BENCH_OUT=/tmp/loadsched-bench-new.json
	/tmp/loadsched-benchdiff -threshold $(BENCH_THRESHOLD) BENCH_results.json /tmp/loadsched-bench-new.json

# determinism: neither the CLI's figure tables nor its JSON records may
# depend on the worker count.
determinism: build
	$(GO) build -o /tmp/loadsched-determinism ./cmd/loadsched
	/tmp/loadsched-determinism all -quick -j 1 > /tmp/loadsched-j1.txt
	/tmp/loadsched-determinism all -quick -j 8 > /tmp/loadsched-j8.txt
	cmp /tmp/loadsched-j1.txt /tmp/loadsched-j8.txt
	/tmp/loadsched-determinism all -quick -format json -j 1 > /tmp/loadsched-j1.json
	/tmp/loadsched-determinism all -quick -format json -j 8 > /tmp/loadsched-j8.json
	cmp /tmp/loadsched-j1.json /tmp/loadsched-j8.json
	@echo "determinism: -j1 and -j8 outputs are byte-identical (table and json)"

# examples: run every example main once (together ~2 s); an example that
# exits non-zero fails the target. Their tables go to /dev/null, their
# errors to the terminal.
examples:
	@for d in examples/*/; do \
		echo "go run ./$${d%/}"; \
		$(GO) run "./$${d%/}" > /dev/null || exit 1; \
	done

# serve-smoke: end-to-end check of `loadsched serve` + the persistent
# result store — remote output must be byte-identical to a local run, and a
# server restarted on a warm store must answer the same sweep with zero
# simulations (see scripts/serve-smoke.sh).
serve-smoke:
	sh scripts/serve-smoke.sh

# fuzz-smoke: fuzz both trace-file readers and the engine behind them for
# 30 s each, beyond the checked-in seeds `go test` replays: FuzzReader (the
# batch and side-car replay path), FuzzStreamReader (accept/reject
# agreement with the whole-file reference decode) and FuzzEngineReplay
# (every accepted file replayed past its end through an Inclusive machine,
# which must not panic or livelock). `go test -fuzz` takes one target per
# run.
# Minimizing a new input may take 60 s, longer than the whole budget, and
# stalls the run: with it a 30-s run made 10K-140K executions, without it
# 700K+. So the smoke run does not minimize; a failing input is still
# written under testdata/fuzz, as found.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzReader$$' -fuzztime 30s -fuzzminimizetime 0 ./internal/trace
	$(GO) test -run '^$$' -fuzz '^FuzzStreamReader$$' -fuzztime 30s -fuzzminimizetime 0 ./internal/trace
	$(GO) test -run '^$$' -fuzz '^FuzzEngineReplay$$' -fuzztime 30s -fuzzminimizetime 0 ./internal/ooo

# perfbench-test: vet and race-test the benchmark module. perfbench/ is its
# own Go module (it replaces loadsched with ../), so the root `go test ./...`
# never compiles it; this target catches a root API change that breaks it.
# The environment matches perfbench/run.sh: the local toolchain, no module
# proxy, no workspace.
PERFBENCH_ENV = GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOWORK=off
perfbench-test:
	cd perfbench && $(PERFBENCH_ENV) $(GO) vet ./... && $(PERFBENCH_ENV) $(GO) test -race ./...

verify: build fmt-check vet race determinism examples
	@echo "verify: OK"

# profile: capture cpu and allocation pprof data for one figure run
# (PROFILE_FIG, default Figure 8 — the heaviest sweep) through the CLI's
# -cpuprofile/-memprofile flags. Inspect with
# `go tool pprof /tmp/loadsched-fig8-cpu.pprof` (top, list, web) — the mem
# profile is what verifies the steady state allocates nothing per simulation.
profile: build
	$(GO) build -o /tmp/loadsched-profile ./cmd/loadsched
	/tmp/loadsched-profile figure $(PROFILE_FIG) -quick \
		-cpuprofile $(PROFILE_DIR)/loadsched-fig$(PROFILE_FIG)-cpu.pprof \
		-memprofile $(PROFILE_DIR)/loadsched-fig$(PROFILE_FIG)-mem.pprof \
		> /dev/null
	@echo "profile: wrote $(PROFILE_DIR)/loadsched-fig$(PROFILE_FIG)-{cpu,mem}.pprof"

# cover: run the test suite with coverage; the go tool prints the
# per-package percentages and the last line below is the repo total. The
# profile lands in /tmp for drill-down with
# `go tool cover -html=/tmp/loadsched-cover.out`.
cover:
	$(GO) test -short -coverprofile=/tmp/loadsched-cover.out -covermode=atomic ./...
	@$(GO) tool cover -func=/tmp/loadsched-cover.out | tail -1

clean:
	rm -f /tmp/loadsched-determinism /tmp/loadsched-benchjson \
		/tmp/loadsched-benchdiff /tmp/loadsched-bench-new.json \
		/tmp/loadsched-j1.txt /tmp/loadsched-j8.txt \
		/tmp/loadsched-j1.json /tmp/loadsched-j8.json
