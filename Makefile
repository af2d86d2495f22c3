# Development entry points; CI (.github/workflows/ci.yml) runs the same steps.

GO ?= go

.PHONY: all build test race lint fmt vet letvet bench bench-update

all: build lint test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# lint = formatting + go vet + the repo's own analyzer suite.
lint: fmt vet letvet

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Full analyzer suite, test files included; every finding fails. Same
# invocation as the CI letvet job, minus the annotation/artifact plumbing.
letvet:
	$(GO) run ./cmd/letvet -tests ./...

# Benchmarks as run by the CI bench job, each diffed against its committed
# snapshot: the solver benchmarks against BENCH_milp.json, the simulator,
# sensitivity-sweep and robustness-margin benchmarks against
# BENCH_sim.json. Deterministic counter drift (lp_iters, nodes, warm_hits,
# warm_expands, eta_nnz, ftran_avg_nnz, transfers, replays, dp_states)
# means the solver trajectory, the margin search or the ordering DP's
# pruning changed (replays counts the margin search's simulator replays
# beyond its closed-form spill bound); `make bench-update` refreshes
# both snapshots after an intentional change. Both lanes record B/op and
# allocs/op (-benchmem); those are reported, not gated.
MILP_BENCH = BenchmarkWarmStartBnB|BenchmarkFastSearchBnB
SIM_BENCH = BenchmarkRobustness|BenchmarkSimulator|BenchmarkSensitivity

bench:
	$(GO) test -run '^$$' -bench '$(MILP_BENCH)' -benchmem -benchtime 1x -count 3 . | tee bench.txt
	$(GO) run ./cmd/benchjson -diff BENCH_milp.json bench.txt
	$(GO) test -run '^$$' -bench '$(SIM_BENCH)' -benchmem -benchtime 3x -count 3 . | tee bench_sim.txt
	$(GO) run ./cmd/benchjson -diff BENCH_sim.json bench_sim.txt

bench-update:
	$(GO) test -run '^$$' -bench '$(MILP_BENCH)' -benchmem -benchtime 1x -count 3 . | tee bench.txt
	$(GO) run ./cmd/benchjson -o BENCH_milp.json bench.txt
	$(GO) test -run '^$$' -bench '$(SIM_BENCH)' -benchmem -benchtime 3x -count 3 . | tee bench_sim.txt
	$(GO) run ./cmd/benchjson -o BENCH_sim.json bench_sim.txt
