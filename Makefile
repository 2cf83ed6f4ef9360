GO ?= go

.PHONY: all build test vet lint vuln race soak obs-smoke bench-smoke shard-speedup service-smoke fuzz-smoke test-routing shard-determinism chiplet-smoke chiplet-scale ci experiments clean

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# lint runs staticcheck when it is installed; the check is advisory and
# the target succeeds (with a notice) on machines without the tool.
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

# vuln runs govulncheck when it is installed, same gating as lint.
vuln:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "vuln: govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

# soak runs the long fault-injection soaks (all six architectures, plus
# every routing strategy on the optimized fabrics, at a 1e-4 fault rate)
# under the race detector. The tests self-skip with -short, so
# `go test -short ./...` stays fast.
soak:
	$(GO) test -race -run TestFaultSoak ./internal/core

# obs-smoke exercises the observability path end to end: a traced
# saturation search writes the JSONL flit trace at two worker-pool
# sizes, jsontrace -validate schema-checks it, and cmp proves the trace
# is byte-identical regardless of parallelism (the determinism
# guarantee of DESIGN.md section 9).
obs-smoke:
	@mkdir -p bin
	$(GO) build -o bin/motsim ./cmd/motsim
	$(GO) build -o bin/jsontrace ./examples/jsontrace
	./bin/motsim -sat -workers 1 -trace-out bin/trace_w1.jsonl >/dev/null
	./bin/motsim -sat -workers 4 -trace-out bin/trace_w4.jsonl >/dev/null
	./bin/motsim -sat -workers 1 -shards 4 -trace-out bin/trace_s4.jsonl >/dev/null
	./bin/jsontrace -validate bin/trace_w1.jsonl
	cmp bin/trace_w1.jsonl bin/trace_w4.jsonl
	cmp bin/trace_w1.jsonl bin/trace_s4.jsonl
	@echo "obs-smoke: trace schema valid and byte-identical at 1 and 4 workers, and at 4 scheduler shards"

# bench-smoke guards the simulation hot path: the kernel micro-benchmarks,
# the NI transaction path, and the per-scheme strategy planning paths
# (all of which must stay zero-alloc) plus the end-to-end Fig6a
# regeneration — serial and at 8 scheduler shards (the BenchmarkFig6aLatency
# pattern matches both; the serial entry doubles as the 1-shard
# no-regression gate) — run once, and benchguard fails the target
# on a >10% wall-clock or any allocs/op regression against
# bench/baseline.json. benchstat, when installed, prints a nicer delta
# report (advisory, like lint). After a legitimate improvement refresh
# the baseline with `make bench-smoke BENCHGUARD_FLAGS=-update`.
BENCHGUARD_FLAGS ?=
bench-smoke:
	@mkdir -p bin
	$(GO) build -o bin/benchguard ./cmd/benchguard
	$(GO) test -run '^$$' -bench 'BenchmarkKernel' -benchmem ./internal/sim | tee bin/bench_kernel.txt
	$(GO) test -run '^$$' -bench 'BenchmarkNITransaction|BenchmarkStrategy' -benchmem ./internal/network | tee bin/bench_ni.txt
	ASYNCNOC_WORKERS=1 $(GO) test -run '^$$' -bench 'BenchmarkFig6aLatency' -benchtime 1x -benchmem . | tee bin/bench_fig6a.txt
	ASYNCNOC_WORKERS=1 $(GO) test -run '^$$' -bench 'BenchmarkChipletHierarchy' -benchtime 1x -benchmem . | tee bin/bench_chiplet.txt
	./bin/benchguard -baseline bench/baseline.json -json bench/BENCH_shard.json $(BENCHGUARD_FLAGS) bin/bench_kernel.txt bin/bench_ni.txt bin/bench_fig6a.txt bin/bench_chiplet.txt
	@if command -v benchstat >/dev/null 2>&1; then \
		benchstat bin/bench_kernel.txt bin/bench_ni.txt bin/bench_fig6a.txt bin/bench_chiplet.txt; \
	fi

# shard-speedup is the multi-core gate behind the sharding work: the
# 8-shard Fig6a regeneration must beat the serial run by >= 2x wall
# clock with persistent workers actually running in parallel. The script
# asks benchguard -print-numcpu first and skips with a notice on fewer
# than 4 cores (where no parallel speedup is measurable; the single-core
# overhead ratchet in bench-smoke still applies there). Measured numbers
# land machine-readably in bench/BENCH_shard.json.
shard-speedup:
	sh scripts/shard_speedup.sh

# service-smoke exercises simulation-as-a-service end to end: asyncnocd
# starts on an ephemeral port over a temp cache dir, the same Fig6a-point
# job is submitted twice (the second response must be a cache hit served
# in < 10ms), SIGTERM must drain cleanly (exit 0, store flushed), and a
# restart over the same cache dir must serve the job from disk without
# recomputing (DESIGN.md section 13).
service-smoke:
	sh scripts/service_smoke.sh

# fuzz-smoke gives the store's entry decoder a short randomized beating
# on every CI run: Decode must never panic, and any entry it accepts
# must re-encode byte-identically (acceptance implies integrity). Longer
# campaigns: go test -fuzz FuzzStoreDecode -fuzztime 10m ./internal/store
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzStoreDecode -fuzztime 10s ./internal/store

# test-routing is the scheme-shootout shard: the routing package (the
# Strategy interface and all five multicast schemes) runs alone with a
# coverage gate — the strategy layer must keep >= 90% statement coverage.
test-routing:
	@mkdir -p bin
	$(GO) test -coverprofile=bin/routing_cover.out ./internal/routing
	@total=$$($(GO) tool cover -func=bin/routing_cover.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "test-routing: internal/routing coverage $$total%"; \
	awk -v t="$$total" 'BEGIN { exit (t >= 90.0) ? 0 : 1 }' || \
		{ echo "test-routing: coverage $$total% below the 90% gate"; exit 1; }

# shard-determinism pins the intra-run sharding contract (DESIGN.md
# section 14): every architecture x routing strategy, single-die and
# chiplet-composed, produces identical results and byte-identical JSONL
# traces at 1, 2, 4, and 8 scheduler shards. -cpu 1,2,4 runs the suite
# at GOMAXPROCS 1, 2 and 4: the persistent-worker parallel backend is
# auto-selected only above one, so a 1-CPU machine exercises it too.
# The same tests also run under the race detector as part of the race
# target; this pass keeps the gate explicit and cheap to re-run.
shard-determinism:
	$(GO) test -run 'TestShardDeterminism|TestChipletShardDeterminism' -cpu 1,2,4 -count=1 .

# chiplet-smoke runs the hierarchical composition end to end: the golden
# 2x2-of-4x4 table and the composed shard-determinism contract (all five
# routing schemes at 1/2/4 shards), then a motsim run of the same
# composition traced at 1 and 4 shards with cmp proving the trace — and
# therefore the whole composed simulation, die-to-die crossings
# included — is byte-identical at any shard count.
chiplet-smoke:
	@mkdir -p bin
	$(GO) test -run 'TestChipletGolden2x2of4x4|TestChipletShardDeterminism' -count=1 .
	$(GO) build -o bin/motsim ./cmd/motsim
	./bin/motsim -topology chiplet:2x2 -n 4 -bench Multicast10 -load 0.3 -seed 2016 \
		-warmup 100 -measure 300 -drain 600 -shards 1 -trace-out bin/chiplet_s1.jsonl >/dev/null
	./bin/motsim -topology chiplet:2x2 -n 4 -bench Multicast10 -load 0.3 -seed 2016 \
		-warmup 100 -measure 300 -drain 600 -shards 4 -trace-out bin/chiplet_s4.jsonl >/dev/null
	cmp bin/chiplet_s1.jsonl bin/chiplet_s4.jsonl
	@echo "chiplet-smoke: 2x2-of-4x4 golden table locked; composed trace byte-identical at 1 and 4 shards"

# chiplet-scale is the paper-scale composed deliverable (manual; takes
# minutes): an 8x8 interposer mesh of 8x8 MoT dies — 4096 terminals —
# under all five routing strategies, byte-identical at 1/2/4/8 shards,
# with the per-hierarchy-level table logged.
chiplet-scale:
	ASYNCNOC_SCALE=1 $(GO) test -run TestChipletScale8x8of8x8 -count=1 -timeout 60m -v .

# ci is the gate: vet, build, the full suite under the race detector
# (engine determinism, property, and fault-layer tests included), the
# fault soak, the observability smoke, the hot-path benchmark guard, the
# multi-core shard speedup gate (self-skips below 4 cores), the service
# and store-fuzz smokes, and the optional static analyzers.
ci: vet build test-routing shard-determinism chiplet-smoke race soak obs-smoke bench-smoke shard-speedup service-smoke fuzz-smoke lint vuln

# experiments regenerates the paper's tables at CI scale.
experiments:
	$(GO) run ./cmd/experiments -quick

clean:
	$(GO) clean ./...
