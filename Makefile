# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build vet lint staticcheck test race check cover bench bench-json bench-disabled bench-diff bench-wirepath perfbench-smoke flightdump statedump figures fuzz examples loadtest clean

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Project-specific analyzers: the four single-function checks (clock
# injection, shard lock order, wire encode/decode symmetry, metric hygiene)
# plus the four interprocedural ones built on the type-checked whole-module
# call graph (hotalloc, lockflow, spawnjoin, snapshotcopy).
# Stale //lint:allow comments are findings too. See DESIGN.md §8/§13;
# suppress a finding with `//lint:allow <analyzer> — reason`.
lint:
	$(GO) run ./cmd/leasevet ./...

# Pinned staticcheck. `go run pkg@version` needs the module cache or
# network to resolve the tool, so hermetic environments skip with a notice
# instead of failing the gate — but when the tool IS resolvable, its
# findings do fail the build.
STATICCHECK_VERSION ?= 2024.1.1
STATICCHECK := $(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)
staticcheck:
	@if $(STATICCHECK) -version >/dev/null 2>&1; then \
		$(STATICCHECK) ./... ; \
	else \
		echo "staticcheck $(STATICCHECK_VERSION) unavailable (offline?); skipping"; \
	fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The full gate: compile, static checks, tests, and the race detector.
check: build vet lint staticcheck test race

cover:
	$(GO) test -cover ./internal/...

# Regenerates every table and figure of the paper (TSVs land in results/).
figures:
	$(GO) run ./cmd/figures -all -scale full -out results

bench:
	$(GO) test -bench=. -benchmem ./...

# Machine-readable benchmark snapshot: ns/op and allocs/op for every
# benchmark, as JSON (format documented in EXPERIMENTS.md). Includes
# BenchmarkConcurrentWrites, whose writes/s metric across 1/4/16 volumes is
# the sharded write path's scaling curve. Parameterized so CI can run a
# short preset: `make bench-json BENCH_PKGS=./internal/obs BENCH_FLAGS=...`.
BENCH_OUT   ?= BENCH_PR8.json
BENCH_PKGS  ?= ./...
BENCH_FLAGS ?= -bench=. -benchmem
bench-json:
	$(GO) test -run '^$$' $(BENCH_FLAGS) $(BENCH_PKGS) | $(GO) run ./cmd/benchjson > $(BENCH_OUT)

# Perf-regression gate: compare two bench-json snapshots with cmd/benchdiff
# (exit 2 on regression). Only benchmarks present in BOTH snapshots are
# compared, so an old baseline keeps gating the benchmarks it knows about.
# The root-package simulator benchmarks allocate millions of objects per op
# and their allocs/op average jitters by ~0.001% with the iteration count,
# so they get a hair of alloc slack; hot-path benchmarks stay exact (+0%).
# The transport send benchmarks measure delivered throughput across a real
# loopback socket pair, so their ns/op carries scheduler and kernel noise —
# they get wide ns slack and rely on the exact alloc gate (and the
# bench-wirepath zero-alloc check) instead.
BENCH_BASE ?= BENCH_PR7.json
BENCH_CAND ?= BENCH_PR8.json
bench-diff:
	$(GO) run ./cmd/benchdiff \
		-rule 'repro Benchmark=alloc:0.01' \
		-rule 'transport Benchmark=ns:75' \
		-rule 'core BenchmarkTableSnapshot=ns:50,alloc:0.01' \
		$(BENCH_BASE) $(BENCH_CAND)

# Gate: the batched wire path must stay allocation-free end to end — the
# pooled append-encoders (BenchmarkWirePath/append) and the full
# send-to-delivery loop for grant/renew/invalidate (BenchmarkBatchedSend)
# all report 0 B/op, 0 allocs/op. The same property is pinned statically:
# `make lint`'s hotalloc analyzer checks every function reachable from the
# //lint:hotpath roots, including paths the benchmark inputs don't drive
# (DESIGN.md §13.3).
bench-wirepath:
	@echo "bench-wirepath: dynamic half of the zero-alloc gate (static half: hotalloc in 'make lint')"
	$(GO) test -run '^$$' -bench 'BenchmarkWirePath/append|BenchmarkBatchedSend/' -benchmem -benchtime=0.2s ./internal/wire ./internal/transport | tee /dev/stderr | \
		awk '/Benchmark(WirePath\/append|BatchedSend)/ && ($$(NF-1) != 0 || $$(NF-3) != 0) { bad = 1 } END { exit bad }'

# Gate: the instrumented hot paths must stay allocation-free when tracing
# is disabled (BenchmarkEmitDisabled / BenchmarkSpanDisabled /
# BenchmarkFlightDisabled / BenchmarkCostDisabled / BenchmarkStateDisabled
# report 0 B/op).
bench-disabled:
	$(GO) test -run '^$$' -bench 'Benchmark(Emit|Span|Flight|Cost|State)Disabled' -benchmem ./internal/obs ./internal/health ./internal/cost ./internal/state | tee /dev/stderr | \
		awk '/Disabled/ && ($$(NF-1) != 0 || $$(NF-3) != 0) { bad = 1 } END { exit bad }'

# Smoke run of the repository benchmark (perfbench/, BENCHMARK.json): each
# live workload for 2 s with tracing off. Fails unless the final JSON line
# reports "correct":true with ops attempted and "failed":0, so a protocol or
# transport change that breaks the benchmark's shape checks fails here, not
# in the next performance comparison. Output lands in .bench_build/.
PERFBENCH_SMOKE_WORKLOADS ?= cached-read read-miss write-fanout
perfbench-smoke:
	@mkdir -p .bench_build
	@for w in $(PERFBENCH_SMOKE_WORKLOADS); do \
		out=.bench_build/smoke-$$w.out; \
		echo "perfbench-smoke: $$w"; \
		bash perfbench/run.sh --workload $$w --seed 1 --seconds 2 --trace 0 > $$out || exit 1; \
		tail -n 1 $$out | cut -c1-100; \
		tail -n 1 $$out | grep -q '^{"correct":true,"attempted":[1-9][0-9]*,"failed":0,' || \
			{ echo "perfbench-smoke: $$w did not report correct with 0 failed"; exit 1; }; \
	done

# Smoke test for the flight recorder: run the chaos scenario (partition a
# client mid-write) and leave its dump in $(FLIGHTDUMP_DIR) for inspection,
# exactly as a failed CI run would. See DESIGN.md §9 for the dump format.
FLIGHTDUMP_DIR ?= flight-dumps
flightdump:
	FLIGHT_DUMP_DIR=$(abspath $(FLIGHTDUMP_DIR)) $(GO) test -count=1 -run TestChaosPartitionLeavesFlightDump -v ./internal/health
	@ls -l $(FLIGHTDUMP_DIR)/flight-*.json

# Smoke test for lease-state introspection: drive leasemon's -leases and
# -diff modes against a live server and two clients, including the
# injected holder-mismatch that must exit 2. See DESIGN.md §12.
statedump:
	$(GO) test -count=1 -run TestStateDumpSmoke -v ./cmd/leasemon

fuzz:
	$(GO) test ./internal/wire -run Fuzz -fuzz=FuzzDecode -fuzztime=30s

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/newsfeed
	$(GO) run ./examples/disconnect
	$(GO) run ./examples/multiserver
	$(GO) run ./examples/hierarchy
	$(GO) run ./examples/webcache

loadtest:
	$(GO) run ./cmd/leasebench -clients 32 -duration 5s

clean:
	rm -rf results test_output.txt bench_output.txt
