// Package letdma's benchmarks are the ones `make bench` and CI run and diff
// against the committed snapshots: the solver benchmarks against
// BENCH_milp.json, the simulator and robustness-margin benchmarks against
// BENCH_sim.json. Run with:
//
//	make bench
//
// The paper's evaluation itself (Fig. 2, Table I, the Section VII
// sensitivity sweep and the ablations) is reproduced by `letdma` and
// checked end to end by the letbench workloads waters-eval and milp-prove;
// Fig. 1 is examples/twocore, pinned by its smoke test.
//
//	BenchmarkFastSearchBnB     MILP discovery solve, DFS vs FastSearch
//	BenchmarkWarmStartBnB      MILP proof re-solve, warm vs cold node solves
//	BenchmarkSimulator         runtime substrate (one hyperperiod)
//	BenchmarkSensitivity       Section VII alpha sweep (combopt ordering DP)
//	BenchmarkRobustness        robustness margins (beyond the paper)
//
// "transfers" is the proved OBJ-DMAT optimum, and lp_iters, warm_hits,
// warm_expands, eta_nnz, ftran_avg_nnz, dp_states and replays are
// deterministic counters; benchjson gates all of them exactly.
package letdma

import (
	"sync"
	"testing"
	"time"

	"letdma/internal/dma"
	"letdma/internal/experiments"
	"letdma/internal/let"
	"letdma/internal/letopt"
	"letdma/internal/milp"
	"letdma/internal/sim"
	"letdma/internal/waters"
)

func fullWaters(b *testing.B) *let.Analysis {
	b.Helper()
	a, err := waters.Analyze()
	if err != nil {
		b.Fatal(err)
	}
	return a
}

// BenchmarkFastSearchBnB measures the discovery regime — no warm start, no
// node budget, solve to proven optimality — on the WATERS (lite) OBJ-DMAT
// instance, the deterministic depth-first engine vs FastSearch at 4
// workers. Both engines prove the same optimum (the certificate tests pin
// that); only "transfers" is reported because FastSearch's nodes and
// lp_iters legitimately vary with goroutine scheduling and must not be
// gated as deterministic metrics. The full WATERS model is excluded: its
// cold root relaxation exceeds the kernel's numerical footing, so
// discovery runs on it measure the early stop, not the search.
func BenchmarkFastSearchBnB(b *testing.B) {
	if testing.Short() {
		b.Skip("discovery MILP solve takes tens of seconds")
	}
	a, err := let.Analyze(waters.Lite())
	if err != nil {
		b.Fatal(err)
	}
	cm := dma.DefaultCostModel()
	for _, cfg := range []struct {
		name string
		fast bool
	}{
		{"dfs", false},
		{"fast", true},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			var transfers int
			for i := 0; i < b.N; i++ {
				res, err := letopt.Solve(a, cm, nil, dma.MinTransfers, letopt.Options{
					MILP:  milp.Params{Workers: 4, TimeLimit: 10 * time.Minute, FastSearch: cfg.fast},
					Slots: 6,
				})
				if err != nil {
					b.Fatal(err)
				}
				if res.Status != milp.StatusOptimal {
					b.Fatalf("discovery solve status %s, want optimal", res.Status)
				}
				transfers = len(res.Sched.Transfers)
			}
			b.ReportMetric(float64(transfers), "transfers")
		})
	}
}

// warmStartSetup caches the expensive one-off setup of BenchmarkWarmStartBnB
// (a full MILP solve to optimality) so repeated -count runs in the same
// process pay for it once.
var warmStartSetup struct {
	once sync.Once
	a    *let.Analysis
	res  *letopt.Result
	err  error
}

// BenchmarkWarmStartBnB isolates the dual-simplex warm path on the regime
// where warm starts matter: a proof re-solve. The setup solves the WATERS
// (lite) OBJ-DMAT instance to optimality once; the benchmark then re-solves
// with the optimal schedule installed as the incumbent — the paper's
// re-verification workflow (re-prove a deployed schedule after a model
// tweak) — with warm node solves enabled (default) and disabled. In this
// regime most of the tree is fathomable, and parent-basis dual simplex
// either fathoms a node (warm_hits) or solves it to optimality
// (warm_expands) instead of a full two-phase solve. Both runs prove the
// same optimum but explore different trees, because a warm solve may land
// on a different optimal vertex than a cold one; lp_iters measures the
// simplex work of each route. Every metric is deterministic.
func BenchmarkWarmStartBnB(b *testing.B) {
	if testing.Short() {
		b.Skip("full MILP solve takes minutes")
	}
	s := &warmStartSetup
	s.once.Do(func() {
		sys := waters.Lite()
		a, err := let.Analyze(sys)
		if err != nil {
			s.err = err
			return
		}
		s.a = a
		cm := dma.DefaultCostModel()
		s.res, s.err = letopt.Solve(a, cm, nil, dma.MinTransfers, letopt.Options{
			MILP:  milp.Params{TimeLimit: 10 * time.Minute},
			Slots: 6,
		})
	})
	if s.err != nil {
		b.Fatal(s.err)
	}
	if s.res.Sched == nil {
		b.Fatal("setup solve returned no solution")
	}
	cm := dma.DefaultCostModel()
	for _, cfg := range []struct {
		name    string
		disable bool
	}{
		{"warm", false},
		{"cold", true},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			var iters int
			var kern milp.KernelStats
			for i := 0; i < b.N; i++ {
				res, err := letopt.Solve(s.a, cm, nil, dma.MinTransfers, letopt.Options{
					MILP: milp.Params{TimeLimit: 10 * time.Minute,
						DisableWarmStart: cfg.disable},
					WarmLayout: s.res.Layout,
					WarmSched:  s.res.Sched,
					Slots:      6,
				})
				if err != nil {
					b.Fatal(err)
				}
				if res.Sched == nil {
					b.Fatal("MILP returned no solution")
				}
				iters = res.SimplexIters
				kern = res.Kernel
			}
			b.ReportMetric(float64(iters), "lp_iters")
			b.ReportMetric(float64(kern.WarmHits), "warm_hits")
			b.ReportMetric(float64(kern.WarmExpands), "warm_expands")
			// Sparse-kernel activity: mean nonzeros per FTRAN result (how
			// much sparsity the LU + eta representation exploits) and total
			// eta-file entries. Both are deterministic, like lp_iters.
			if kern.FtranSolves > 0 {
				b.ReportMetric(float64(kern.FtranNnz)/float64(kern.FtranSolves), "ftran_avg_nnz")
			}
			b.ReportMetric(float64(kern.EtaNnz), "eta_nnz")
		})
	}
}

// BenchmarkSimulator measures one hyperperiod of the full case study under
// the proposed protocol (about 6800 jobs and 1900 communication instants).
func BenchmarkSimulator(b *testing.B) {
	a := fullWaters(b)
	cm := dma.DefaultCostModel()
	solved, err := experiments.SolveProposed(a, experiments.Config{Alpha: 0.2, Objective: dma.MinDelayRatio})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(sim.Config{Analysis: a, Cost: cm, Sched: solved.Sched, Protocol: sim.Proposed})
		if err != nil {
			b.Fatal(err)
		}
		if res.Property3Violations != 0 {
			b.Fatal("unexpected Property 3 violations")
		}
	}
}

// BenchmarkSensitivity measures the paper's Section VII alpha sweep on the
// full case study: an OBJ-DEL combinatorial solve per alpha in 0.1-0.5,
// alpha = 0.1 infeasible. Most of its time is combopt's ordering DP;
// "dp_states" counts the states that DP expanded over the feasible solves.
// It is deterministic, so a change in the DP's pruning shows as an exact
// drift.
func BenchmarkSensitivity(b *testing.B) {
	a := fullWaters(b)
	alphas := []float64{0.1, 0.2, 0.3, 0.4, 0.5}
	b.ReportAllocs()
	b.ResetTimer()
	var states int
	for i := 0; i < b.N; i++ {
		rows := experiments.Sensitivity(a, alphas, experiments.Config{})
		states = 0
		for _, r := range rows {
			states += r.DPStates
		}
	}
	b.ReportMetric(float64(states), "dp_states")
}

// BenchmarkRobustness measures the robustness-margin experiment on the
// full case study (seed 7, two survival trials per rate): one schedule
// solve, then a critical-slowdown search and a survival sweep per
// protocol, all replayed through the simulator. "replays" counts the
// fault-free replays of the four slowdown searches: 3, one confirming
// replay per DMA protocol, whose margins are spill-bound, and none for
// Giotto-CPU, whose nominal copies already overrun a window. It is
// deterministic, so a change in search cost shows as an exact drift.
func BenchmarkRobustness(b *testing.B) {
	a := fullWaters(b)
	cfg := experiments.Config{Alpha: 0.2, Objective: dma.MinDelayRatio}
	b.ReportAllocs()
	b.ResetTimer()
	var replays int
	for i := 0; i < b.N; i++ {
		res, err := experiments.Robustness(a, cfg, experiments.RobustnessConfig{Seed: 7, Trials: 2})
		if err != nil {
			b.Fatal(err)
		}
		replays = 0
		for _, m := range res.Margins {
			replays += m.SearchReplays
		}
	}
	b.ReportMetric(float64(replays), "replays")
}
