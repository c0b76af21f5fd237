GO ?= go

# Tier-1 verification in one command.
.PHONY: check
check: build vet test

.PHONY: build
build:
	$(GO) build ./...

.PHONY: vet
vet:
	$(GO) vet ./...

.PHONY: test
test:
	$(GO) test ./...

# The concurrency-heavy packages under the race detector (slower; not part
# of check).
.PHONY: race
race:
	$(GO) test -race . ./internal/parallel ./internal/experiments ./internal/grid

# End-to-end smoke test of the distributed grid: 1 job server + 2 worker
# processes + `sweep -grid`, asserting byte-identical results vs the
# local run, cache hits on a rerun, survival of a worker killed
# mid-study (lease reassignment), the federation chaos leg (the member
# of a sharded-store federation streaming the ladder SIGKILLed
# mid-batch; the client fails its unfinished jobs over to the survivor,
# and the rerun is 100% served from the shared store), and the
# multi-tenant service leg (an autoscaled server under two tenant
# identities survives a SIGKILLed peer and SIGKILLed autoscaled
# workers, enforces the metered tenant's rate limit, and stays
# byte-identical).
.PHONY: grid-smoke
grid-smoke:
	sh scripts/grid_smoke.sh

# Vet and test the benchmark module (perfbench/, its own Go module that
# builds against this one): a grid or runner API it still calls that
# disappears fails here, not at benchmark time.
.PHONY: perfbench-test
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Coverage gate for the grid subsystem: the distributed fabric (storage,
# leases, streams, fault recovery, admission control, fair scheduling,
# autoscaling) must keep at least GRID_COVER_MIN% statement coverage.
GRID_COVER_MIN ?= 82
.PHONY: grid-cover
grid-cover:
	@$(GO) test -coverprofile=grid.coverprofile ./internal/grid
	@total=$$($(GO) tool cover -func=grid.coverprofile | awk '/^total:/ { gsub(/%/, "", $$3); print $$3 }'); \
	rm -f grid.coverprofile; \
	echo "internal/grid coverage: $$total% (gate: $(GRID_COVER_MIN)%)"; \
	awk -v got="$$total" -v min="$(GRID_COVER_MIN)" 'BEGIN { exit (got+0 < min+0) ? 1 : 0 }' \
	    || { echo "grid-cover: FAIL — $$total% < $(GRID_COVER_MIN)%"; exit 1; }

# Fuzz the steering policy-name parser and the on-disk store loader
# beyond their checked-in seed corpora (the corpora themselves replay in
# every plain `go test` run).
.PHONY: fuzz
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzPolicyByName -fuzztime 10s ./internal/steer
	$(GO) test -run '^$$' -fuzz FuzzStoreRecover -fuzztime 10s ./internal/grid

# Formatting gate: fails when any file needs gofmt.
.PHONY: fmt-check
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# Full benchmark sweep, summarized into BENCH_core.json (ns/op and
# allocs/op per benchmark, min/mean/max, plus the dispatch/phase-UCB/grid
# overhead metrics). THREE separate invocations feed the summary: each
# process launch re-rolls machine state (CPU placement, layout), and the
# per-invocation floors give benchcheck an honest per-benchmark noise
# reference (ns_per_op_floor_worst) instead of one lucky draw.
.PHONY: bench-json
bench-json:
	{ $(GO) test -run '^$$' -bench=. -benchmem -count=3 . ; \
	  $(GO) test -run '^$$' -bench=. -benchmem -count=3 . ; \
	  $(GO) test -run '^$$' -bench=. -benchmem -count=3 . ; } \
	    | $(GO) run ./cmd/benchjson -o BENCH_core.json

# Perf trajectory gate: regenerate the benchmark summary exactly the way
# bench-json does and diff it against the committed baseline. Fails on a
# >$(BENCH_MAX_REGRESS_PCT)% ns/op regression on any benchmark — after
# normalizing out the suite-wide median drift, and only when the
# regression survives a focused higher-count rerun (scheduler noise does
# not reproduce a slower floor; real regressions do) — or any
# *_overhead_pct metric over its $(BENCH_OVERHEAD_BUDGET_PCT)% budget
# (the dispatch/phase-UCB/grid overheads are promised cheap — creeping
# past budget fails loudly instead of landing silently).
# The allocation side of the gate is deterministic and therefore strict:
# allocs/op and bytes/op may not grow more than
# $(BENCH_MAX_ALLOC_REGRESS_PCT)% over the committed baseline on any
# benchmark, and the hot-loop ablation benchmarks additionally carry the
# explicit $(BENCH_ALLOC_BUDGETS) ceilings — the zero-steady-state-alloc
# core keeps them at a few hundred allocs per op (per-job construction:
# the workload stream and the policy clone), so a return of per-tick
# garbage (tens of thousands per op) fails even if BENCH_core.json were
# refreshed past it.
BENCH_MAX_REGRESS_PCT ?= 10
BENCH_OVERHEAD_BUDGET_PCT ?= 5
BENCH_MAX_ALLOC_REGRESS_PCT ?= 10
BENCH_ALLOC_BUDGETS ?= BenchmarkAblationClockRatio=2500,BenchmarkAblationConfidence=2500,BenchmarkAblationHelperWidth=2500,BenchmarkAblationSplitMode=2500
.PHONY: bench-check
bench-check:
	GO="$(GO)" BENCH_MAX_REGRESS_PCT=$(BENCH_MAX_REGRESS_PCT) \
	    BENCH_OVERHEAD_BUDGET_PCT=$(BENCH_OVERHEAD_BUDGET_PCT) \
	    BENCH_MAX_ALLOC_REGRESS_PCT=$(BENCH_MAX_ALLOC_REGRESS_PCT) \
	    BENCH_ALLOC_BUDGETS="$(BENCH_ALLOC_BUDGETS)" sh scripts/bench_check.sh

# pprof artifacts for the simulator hot loop: CPU and allocation
# profiles of the ablation benchmarks (the rename/queue/exec/commit
# path), written to cpu.pprof / mem.pprof for `go tool pprof`. The
# same profiles are available from real studies via the -cpuprofile /
# -memprofile flags on helpersim and sweep.
.PHONY: bench-profile
bench-profile:
	$(GO) test -run '^$$' -bench 'BenchmarkAblation' -benchtime 20x \
	    -cpuprofile cpu.pprof -memprofile mem.pprof -o bench-profile.test .
	@rm -f bench-profile.test
	@echo "wrote cpu.pprof and mem.pprof — inspect with: $(GO) tool pprof -top cpu.pprof"

# The zero-alloc steady-state gate on its own (it also runs in `make
# test`): once warm, the measured phase of the simulator core must not
# allocate at all.
.PHONY: alloc-gate
alloc-gate:
	$(GO) test -run TestSteadyStateZeroAllocs -count=1 ./internal/core
