GO ?= go

.PHONY: all build test vet lint vuln race soak obs-smoke bench-smoke service-smoke fuzz-smoke test-routing shard-determinism chiplet-smoke chiplet-scale ci experiments clean

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
# guarantee of DESIGN.md section 9). A traced fault run with a one-retry
# budget must also validate and carry retransmit and drop events, and
# motsim -util must print its per-level table from the RunResult, at a
# fixed load and at the saturation load of -sat, whose -hist must print
# its histogram.
# Byte-identity across scheduler shard counts is gated by
# shard-determinism.
obs-smoke:
	@mkdir -p bin
	$(GO) build -o bin/motsim ./cmd/motsim
	$(GO) build -o bin/jsontrace ./examples/jsontrace
	./bin/motsim -sat -workers 1 -trace-out bin/trace_w1.jsonl >/dev/null
	./bin/motsim -sat -workers 4 -trace-out bin/trace_w4.jsonl >/dev/null
	./bin/jsontrace -validate bin/trace_w1.jsonl
	cmp bin/trace_w1.jsonl bin/trace_w4.jsonl
	./bin/motsim -faults 1e-2 -fault-retries 1 -trace-out bin/trace_faults.jsonl >/dev/null
	./bin/jsontrace -validate bin/trace_faults.jsonl
	grep -q '"kind":"retransmit"' bin/trace_faults.jsonl
	grep -q '"kind":"drop"' bin/trace_faults.jsonl
	./bin/motsim -util > bin/motsim_util.txt
	grep -q '^redundant fraction: ' bin/motsim_util.txt
	./bin/motsim -sat -util > bin/motsim_sat_util.txt
	grep -q '^redundant fraction: ' bin/motsim_sat_util.txt
	./bin/motsim -sat -hist > bin/motsim_sat_hist.txt
	grep -q '^latency histogram (ns):' bin/motsim_sat_hist.txt
	@echo "obs-smoke: trace schema valid and byte-identical at 1 and 4 workers; fault trace valid with retransmit and drop events; -util table and -sat -util/-hist printed"

# bench-smoke guards the simulation hot path: the kernel micro-benchmarks,
# the NI transaction path, and the per-scheme strategy planning paths
# (all of which must stay zero-alloc), the engine's memo hit
# (BenchmarkEngineMemoHit) and one memo-served asyncnocd request over
# loopback (BenchmarkServiceWarmRequest) run five times each and are
# judged by their medians (benchguard -count 5 also fails one that
# brought fewer samples); the end-to-end Fig6a regeneration, the chiplet
# table and the four 4x4 mesh runs (BenchmarkMeshRun) run once.
# benchguard fails the target on a >10% wall-clock or any allocs/op
# regression against bench/baseline.json.
# benchstat, when installed, prints a nicer delta report (advisory, like
# lint). After a legitimate improvement refresh the baseline with
# `make bench-smoke BENCHGUARD_FLAGS=-update`. The machine-readable
# reports (benchguard -json) go to bin/bench_report_micro.json and
# bin/bench_report.json.
BENCHGUARD_FLAGS ?=
# Each `go test | tee` line must fail the target when go test fails (a
# panicking benchmark), not exit with tee's status.
bench-smoke: SHELL := /bin/bash
bench-smoke: .SHELLFLAGS := -o pipefail -c
bench-smoke:
	@mkdir -p bin
	$(GO) build -o bin/benchguard ./cmd/benchguard
	$(GO) test -run '^$$' -bench 'BenchmarkKernel' -benchmem -count 5 ./internal/sim | tee bin/bench_kernel.txt
	$(GO) test -run '^$$' -bench 'BenchmarkNITransaction|BenchmarkStrategy' -benchmem -count 5 ./internal/network | tee bin/bench_ni.txt
	$(GO) test -run '^$$' -bench 'BenchmarkEngineMemoHit' -benchmem -count 5 ./internal/core | tee bin/bench_memo.txt
	$(GO) test -run '^$$' -bench 'BenchmarkServiceWarmRequest' -benchmem -count 5 ./internal/service | tee bin/bench_service.txt
	ASYNCNOC_WORKERS=1 $(GO) test -run '^$$' -bench 'BenchmarkFig6aLatency' -benchtime 1x -benchmem . | tee bin/bench_fig6a.txt
	ASYNCNOC_WORKERS=1 $(GO) test -run '^$$' -bench 'BenchmarkChipletHierarchy' -benchtime 1x -benchmem . | tee bin/bench_chiplet.txt
	ASYNCNOC_WORKERS=1 $(GO) test -run '^$$' -bench 'BenchmarkMeshRun' -benchtime 1x -benchmem . | tee bin/bench_mesh.txt
	./bin/benchguard -count 5 -baseline bench/baseline.json -json bin/bench_report_micro.json $(BENCHGUARD_FLAGS) bin/bench_kernel.txt bin/bench_ni.txt bin/bench_memo.txt bin/bench_service.txt
	./bin/benchguard -baseline bench/baseline.json -json bin/bench_report.json $(BENCHGUARD_FLAGS) bin/bench_fig6a.txt bin/bench_chiplet.txt bin/bench_mesh.txt
	@if command -v benchstat >/dev/null 2>&1; then \
		benchstat bin/bench_kernel.txt bin/bench_ni.txt bin/bench_memo.txt bin/bench_service.txt bin/bench_fig6a.txt bin/bench_chiplet.txt bin/bench_mesh.txt; \
	fi

# service-smoke exercises simulation-as-a-service end to end: asyncnocd
# starts on an ephemeral port over a temp cache dir, the same Fig6a-point
# job is submitted twice, then the same job on a 4x4 mesh twice (each
# second response must be a cache hit served in < 10ms), SIGTERM must
# drain cleanly (exit 0, store flushed), and a restart over the same
# cache dir must serve both jobs from disk without recomputing
# (DESIGN.md section 13).
service-smoke:
	sh scripts/service_smoke.sh

# fuzz-smoke gives every external input parser a short randomized
# beating on every CI run: the store's entry decoder (an accepted entry
# re-encodes byte-identically), the replay schedule parser (an accepted
# schedule passes Schedule.Validate), the -dests and -topology parsers
# (an accepted value round-trips), a JSON network spec (a validated spec
# builds) and a JSON service run request (an accepted request's job key
# equals the reference formula's, and the request runs to a result or an
# error under a 50k-event budget and a 2 s deadline). None
# may panic or hang. It also fuzzes the event kernel itself: byte
# strings become schedule (any delay, past the timing wheel's span and
# at Never), cancel, step and RunUntil operations whose dispatch order
# must match a naive reference scheduler, the saturation verdict (a
# drawn probe that stops at its verdict must agree with its full run),
# the final-result stop (a drawn run that stops once its result is
# final must equal its full-span run) and the engine's network cache (a
# drawn sequence of runs, each rebuilt on the network of the one before,
# must equal runs on fresh builds).
# The targets after the store cap input minimization at 200 runs: most
# of their binaries link the whole simulator, and an uncapped
# minimization can eat the 10 s budget.
# Longer campaigns: go test -fuzz FuzzStoreDecode -fuzztime 10m ./internal/store
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzStoreDecode -fuzztime 10s ./internal/store
	$(GO) test -run '^$$' -fuzz FuzzParseSchedule -fuzztime 10s -fuzzminimizetime 200x ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzParseDests -fuzztime 10s -fuzzminimizetime 200x ./internal/packet
	$(GO) test -run '^$$' -fuzz FuzzParseTopology -fuzztime 10s -fuzzminimizetime 200x ./internal/cliflags
	$(GO) test -run '^$$' -fuzz FuzzSpecBuild -fuzztime 10s -fuzzminimizetime 200x ./internal/network
	$(GO) test -run '^$$' -fuzz FuzzRunRequest -fuzztime 10s -fuzzminimizetime 200x ./internal/service
	$(GO) test -run '^$$' -fuzz FuzzKernelOrder -fuzztime 10s -fuzzminimizetime 200x ./internal/sim
	$(GO) test -run '^$$' -fuzz FuzzSatVerdict -fuzztime 10s -fuzzminimizetime 200x ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzFinalCut -fuzztime 10s -fuzzminimizetime 200x ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzCrossSpecReuse -fuzztime 10s -fuzzminimizetime 200x ./internal/core

# test-routing is the scheme-shootout shard: the routing package (the
# Strategy interface and all five multicast schemes) runs with a
# coverage gate — the strategy layer must keep >= 90% statement
# coverage. The mesh, the layer's second client (it plans on a
# mask-routed Fabric), runs beside it, and one motsim mesh saturation
# search, one mesh schedule replay and one mesh load sweep run it through
# the engine and the shared harness end to end; the gate stays on the
# routing package. The mesh search is traced at 1 and 4 workers: both
# JSONL traces must pass the jsontrace schema check and be
# byte-identical.
test-routing:
	@mkdir -p bin
	$(GO) test -coverprofile=bin/routing_cover.out ./internal/routing
	$(GO) test ./internal/mesh
	$(GO) build -o bin/motsim ./cmd/motsim
	$(GO) build -o bin/replay ./cmd/replay
	$(GO) build -o bin/loadsweep ./cmd/loadsweep
	$(GO) build -o bin/jsontrace ./examples/jsontrace
	./bin/motsim -topology mesh:4x4 -sat -bench Multicast10 -measure 400 -workers 1 -trace-out bin/mesh_sat_w1.jsonl > bin/motsim_mesh_sat.txt
	grep -q '^saturation load: ' bin/motsim_mesh_sat.txt
	./bin/motsim -topology mesh:4x4 -sat -bench Multicast10 -measure 400 -workers 4 -trace-out bin/mesh_sat_w4.jsonl > /dev/null
	./bin/jsontrace -validate bin/mesh_sat_w1.jsonl
	./bin/jsontrace -validate bin/mesh_sat_w4.jsonl
	cmp bin/mesh_sat_w1.jsonl bin/mesh_sat_w4.jsonl
	./bin/replay -topology mesh:4x4 -file cmd/replay/testdata/mesh4x4.csv > bin/replay_mesh.txt
	grep -q '^completion:     100.0%' bin/replay_mesh.txt
	./bin/loadsweep -topology mesh:4x4 -points 2 -bench Multicast10 > bin/loadsweep_mesh.txt
	grep -q '^Mesh4x4Tree / Multicast10$$' bin/loadsweep_mesh.txt
	grep -q '^      0.95 ' bin/loadsweep_mesh.txt
	@total=$$($(GO) tool cover -func=bin/routing_cover.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "test-routing: internal/routing coverage $$total%"; \
	awk -v t="$$total" 'BEGIN { exit (t >= 90.0) ? 0 : 1 }' || \
		{ echo "test-routing: coverage $$total% below the 90% gate"; exit 1; }

# shard-determinism pins the die-sharding contract (DESIGN.md section
# 14): every architecture x routing strategy, composed as a chiplet
# system with one region of whole dies per shard, produces identical
# results and byte-identical JSONL traces at 1, 2, 4, and 8 scheduler
# shards. It is the only target that runs these tests outside the race
# detector's pass over the whole suite (the race target).
shard-determinism:
	$(GO) test -run 'TestShardDeterminism|TestChipletShardDeterminism' -count=1 .

# chiplet-smoke runs the hierarchical composition end to end: the golden
# 2x2-of-4x4 table, the composition cases of the steady-state alloc
# soak (a 2x2-of-8x8 run must stay allocation-free past its pools'
# high-water marks), then one traced motsim run of the 2x2-of-4x4
# composition whose JSONL trace — die-to-die crossings included — must
# pass the jsontrace schema check. Its shard determinism is pinned by
# shard-determinism.
chiplet-smoke:
	@mkdir -p bin
	$(GO) test -run 'TestChipletGolden2x2of4x4' -count=1 .
	$(GO) test -run 'TestSteadyStateAllocSoak/@2x2of8' -count=1 ./internal/core
	$(GO) build -o bin/motsim ./cmd/motsim
	$(GO) build -o bin/jsontrace ./examples/jsontrace
	./bin/motsim -topology chiplet:2x2 -n 4 -bench Multicast10 -load 0.3 -seed 2016 \
		-warmup 100 -measure 300 -drain 600 -trace-out bin/chiplet.jsonl >/dev/null
	./bin/jsontrace -validate bin/chiplet.jsonl
	@echo "chiplet-smoke: 2x2-of-4x4 golden table locked; 2x2-of-8x8 soak allocation-free; composed CLI trace schema valid"

# chiplet-scale is the paper-scale composed deliverable (manual; takes
# minutes): an 8x8 interposer mesh of 8x8 MoT dies — 4096 terminals —
# under all five routing strategies, byte-identical at 1/2/4/8 shards,
# with the per-hierarchy-level table logged.
chiplet-scale:
	ASYNCNOC_SCALE=1 $(GO) test -run TestChipletScale8x8of8x8 -count=1 -timeout 60m -v .

# ci is the gate: vet, build, the full suite under the race detector
# (engine determinism, property, and fault-layer tests included), the
# fault soak, the observability smoke, the hot-path benchmark guard, the
# service and store-fuzz smokes, and the optional static analyzers.
ci: vet build test-routing shard-determinism chiplet-smoke race soak obs-smoke bench-smoke service-smoke fuzz-smoke lint vuln

# experiments regenerates the paper's tables at CI scale.
experiments:
	$(GO) run ./cmd/experiments -quick

clean:
	$(GO) clean ./...
