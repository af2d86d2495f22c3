// Package letdma's benchmark harness regenerates every table and figure of
// the paper's evaluation (Section VII) and the ablations called out in
// DESIGN.md. Run with:
//
//	go test -bench=. -benchmem
//
// Mapping to the paper:
//
//	BenchmarkFig1TwoCore       Fig. 1   (two-core example schedule)
//	BenchmarkFig2/...          Fig. 2   (six panels: 3 objectives x 2 alphas)
//	BenchmarkTableI            Table I  (combinatorial solver)
//	BenchmarkTableIMILPLite    Table I  (MILP columns, reduced instance)
//	BenchmarkMILPFullWaters    Table I  (MILP on the full case study)
//	BenchmarkSensitivity       Section VII alpha sweep
//	BenchmarkAblation*         DESIGN.md ablations
//	BenchmarkSimulator         runtime substrate (one hyperperiod)
//	BenchmarkRobustness        robustness margins (beyond the paper)
//
// Reported metrics: "transfers" is the number of DMA transfers at s0,
// "maxRatio" the objective of Eq. (5), "bestRatio" the strongest per-task
// improvement over any baseline (paper: up to 98% improvement = 0.02).
package letdma

import (
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"letdma/internal/combopt"
	"letdma/internal/dbuf"
	"letdma/internal/dma"
	"letdma/internal/experiments"
	"letdma/internal/let"
	"letdma/internal/letopt"
	"letdma/internal/milp"
	"letdma/internal/model"
	"letdma/internal/multidma"
	"letdma/internal/rta"
	"letdma/internal/sim"
	"letdma/internal/timeutil"
	"letdma/internal/trace"
	"letdma/internal/waters"
)

func mustAnalyze(b *testing.B, sys *model.System) *let.Analysis {
	b.Helper()
	a, err := let.Analyze(sys)
	if err != nil {
		b.Fatal(err)
	}
	return a
}

func fullWaters(b *testing.B) *let.Analysis {
	b.Helper()
	a, err := waters.Analyze()
	if err != nil {
		b.Fatal(err)
	}
	return a
}

// twocoreSystem is the Fig. 1 scenario.
func twocoreSystem() *model.System {
	sys := model.NewSystem(2)
	ms := timeutil.Milliseconds
	t1 := sys.MustAddTask("tau1", ms(10), ms(1), 0)
	t3 := sys.MustAddTask("tau3", ms(20), ms(2), 0)
	t5 := sys.MustAddTask("tau5", ms(20), ms(2), 0)
	t2 := sys.MustAddTask("tau2", ms(10), ms(1), 1)
	t4 := sys.MustAddTask("tau4", ms(20), ms(2), 1)
	t6 := sys.MustAddTask("tau6", ms(20), ms(2), 1)
	sys.MustAddLabel("l1", 1<<10, t1, t2)
	sys.MustAddLabel("l2", 96<<10, t3, t4)
	sys.MustAddLabel("l3", 64<<10, t5, t6)
	sys.AssignRateMonotonicPriorities()
	return sys
}

// BenchmarkFig1TwoCore regenerates the Fig. 1 comparison: optimized order
// vs Giotto order on the two-core example, reporting tau2's latency gain.
func BenchmarkFig1TwoCore(b *testing.B) {
	a := mustAnalyze(b, twocoreSystem())
	cm := dma.DefaultCostModel()
	var gain float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := combopt.Solve(a, cm, nil, dma.MinDelayRatio)
		if err != nil {
			b.Fatal(err)
		}
		giotto := dma.GiottoReorder(a, res.Sched)
		t2 := a.Sys.TaskByName("tau2").ID
		ours := dma.Latency(a, cm, res.Sched, 0, t2, dma.PerTaskReadiness)
		base := dma.Latency(a, cm, giotto, 0, t2, dma.AfterAllReadiness)
		gain = 1 - float64(ours)/float64(base)
	}
	b.ReportMetric(gain, "tau2_gain")
}

// BenchmarkFig2 regenerates the six panels of Fig. 2 on the full WATERS
// case study (combinatorial solver, as the MILP columns are covered by the
// dedicated MILP benchmarks).
func BenchmarkFig2(b *testing.B) {
	a := fullWaters(b)
	for _, cfg := range []struct {
		name  string
		alpha float64
		obj   dma.Objective
	}{
		{"NoObj_alpha02", 0.2, dma.NoObjective},
		{"ObjDmat_alpha02", 0.2, dma.MinTransfers},
		{"ObjDel_alpha02", 0.2, dma.MinDelayRatio},
		{"NoObj_alpha04", 0.4, dma.NoObjective},
		{"ObjDmat_alpha04", 0.4, dma.MinTransfers},
		{"ObjDel_alpha04", 0.4, dma.MinDelayRatio},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			var best float64
			var transfers int
			for i := 0; i < b.N; i++ {
				res, err := experiments.Fig2(a, experiments.Config{Alpha: cfg.alpha, Objective: cfg.obj})
				if err != nil {
					b.Fatal(err)
				}
				best = 1.0
				for _, row := range res.Rows {
					for _, r := range []float64{row.RatioCPU(), row.RatioDMAA(), row.RatioDMAB()} {
						if r > 0 && r < best {
							best = r
						}
					}
				}
				transfers = res.Solved.NumTransfers
			}
			b.ReportMetric(best, "bestRatio")
			b.ReportMetric(float64(transfers), "transfers")
		})
	}
}

// BenchmarkTableI regenerates Table I (combinatorial solver).
func BenchmarkTableI(b *testing.B) {
	a := fullWaters(b)
	var transfersNoObj, transfersDmat int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.TableI(a, []float64{0.2, 0.4}, experiments.Config{})
		if err != nil {
			b.Fatal(err)
		}
		transfersNoObj = rows[0].NumTransfers
		transfersDmat = rows[2].NumTransfers
	}
	b.ReportMetric(float64(transfersNoObj), "transfers_noobj")
	b.ReportMetric(float64(transfersDmat), "transfers_dmat")
}

// BenchmarkTableIMILPLite measures the MILP path of Table I on the reduced
// case study (all three objectives, alpha = 0.2), with a bounded search.
func BenchmarkTableIMILPLite(b *testing.B) {
	a := mustAnalyze(b, waters.Lite())
	for _, obj := range []dma.Objective{dma.NoObjective, dma.MinTransfers, dma.MinDelayRatio} {
		b.Run(obj.String(), func(b *testing.B) {
			var transfers int
			for i := 0; i < b.N; i++ {
				solved, err := experiments.SolveProposed(a, experiments.Config{
					Alpha: 0.2, Objective: obj,
					Solver: experiments.SolverMILP, MILPTimeLimit: 5 * time.Second,
				})
				if err != nil {
					b.Fatal(err)
				}
				transfers = solved.NumTransfers
			}
			b.ReportMetric(float64(transfers), "transfers")
		})
	}
}

// BenchmarkMILPFullWaters runs the MILP (warm-started, time-limited) on the
// full WATERS instance under OBJ-DMAT — the configuration whose CPLEX run
// hit the one-hour timeout in the paper. With the chain-counting
// formulation and branch priorities, our solver proves optimality in tens
// of seconds; the benchmark bounds it at 60s for robustness.
func BenchmarkMILPFullWaters(b *testing.B) {
	if testing.Short() {
		b.Skip("full MILP solve takes tens of seconds")
	}
	a := fullWaters(b)
	var transfers int
	var status string
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		solved, err := experiments.SolveProposed(a, experiments.Config{
			Alpha: 0.2, Objective: dma.MinTransfers,
			Solver: experiments.SolverMILP, MILPTimeLimit: 60 * time.Second, Slots: 16,
		})
		if err != nil {
			b.Fatal(err)
		}
		transfers = solved.NumTransfers
		status = solved.MILPStatus
	}
	b.ReportMetric(float64(transfers), "transfers")
	b.Logf("MILP status: %s", status)
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
	a := mustAnalyze(b, waters.Lite())
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

// BenchmarkParallelCampaign measures the acceptance-ratio campaign at 1 and
// 4 workers; the rows are identical (generation is sequential and seeded),
// only the per-system feasibility checks fan out.
func BenchmarkParallelCampaign(b *testing.B) {
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			var accepted int
			for i := 0; i < b.N; i++ {
				rows, err := experiments.Campaign(experiments.CampaignConfig{
					Systems: 40, Seed: 7, Alphas: []float64{0.3, 0.6}, Workers: workers,
				})
				if err != nil {
					b.Fatal(err)
				}
				accepted = rows[0].Proposed + rows[1].Proposed
			}
			b.ReportMetric(float64(accepted), "accepted")
		})
	}
}

// BenchmarkSensitivity sweeps alpha in {0.1, ..., 0.5} (Section VII).
func BenchmarkSensitivity(b *testing.B) {
	a := fullWaters(b)
	var feasible int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := experiments.Sensitivity(a, []float64{0.1, 0.2, 0.3, 0.4, 0.5}, experiments.Config{})
		feasible = 0
		for _, r := range rows {
			if r.Feasible {
				feasible++
			}
		}
	}
	b.ReportMetric(float64(feasible), "feasible_alphas")
}

// BenchmarkAblationGrouping compares the three grouping granularities
// (DESIGN.md ablation: Giotto-DMA-A-like per-comm vs signature bundles vs
// chain-merged bundles).
func BenchmarkAblationGrouping(b *testing.B) {
	a := fullWaters(b)
	cm := dma.DefaultCostModel()
	for _, gran := range []combopt.Granularity{combopt.GranPerComm, combopt.GranBundled, combopt.GranMerged} {
		b.Run(string(gran), func(b *testing.B) {
			var transfers int
			var ratio float64
			for i := 0; i < b.N; i++ {
				res, err := combopt.SolveWithOptions(a, cm, nil, dma.MinDelayRatio,
					combopt.Options{Granularities: []combopt.Granularity{gran}})
				if err != nil {
					b.Fatal(err)
				}
				transfers = res.NumTransfers
				ratio = res.Objective
			}
			b.ReportMetric(float64(transfers), "transfers")
			b.ReportMetric(ratio, "maxRatio")
		})
	}
}

// BenchmarkAblationOrdering compares transfer orderings on the same
// grouping: the exact subset-DP order, the list-scheduling heuristic
// implicit in large instances, and the Giotto order (which is exactly the
// Giotto-DMA-B baseline).
func BenchmarkAblationOrdering(b *testing.B) {
	a := fullWaters(b)
	cm := dma.DefaultCostModel()
	res, err := combopt.Solve(a, cm, nil, dma.MinDelayRatio)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("exact", func(b *testing.B) {
		var ratio float64
		for i := 0; i < b.N; i++ {
			ratio = dma.MaxLatencyRatio(a, cm, res.Sched, dma.PerTaskReadiness)
		}
		b.ReportMetric(ratio, "maxRatio")
	})
	b.Run("giotto", func(b *testing.B) {
		giotto := dma.GiottoReorder(a, res.Sched)
		var ratio float64
		for i := 0; i < b.N; i++ {
			ratio = dma.MaxLatencyRatio(a, cm, giotto, dma.AfterAllReadiness)
		}
		b.ReportMetric(ratio, "maxRatio")
	})
}

// BenchmarkSolverComparison runs the generic MILP and the specialized
// combinatorial solver on the same reduced instance (repo-specific
// ablation made necessary by the CPLEX substitution).
func BenchmarkSolverComparison(b *testing.B) {
	a := mustAnalyze(b, waters.Lite())
	cm := dma.DefaultCostModel()
	b.Run("combinatorial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := combopt.Solve(a, cm, nil, dma.MinTransfers); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("milp", func(b *testing.B) {
		comb, err := combopt.Solve(a, cm, nil, dma.MinTransfers)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			res, err := letopt.Solve(a, cm, nil, dma.MinTransfers, letopt.Options{
				MILP:       milp.Params{TimeLimit: 10 * time.Second},
				WarmLayout: comb.Layout,
				WarmSched:  comb.Sched,
			})
			if err != nil {
				b.Fatal(err)
			}
			if res.Sched == nil {
				b.Fatal("MILP returned no solution")
			}
		}
	})
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

// BenchmarkRobustness measures the robustness-margin experiment on the
// full case study (seed 7, two survival trials per rate): one schedule
// solve, then a critical-slowdown search and a survival sweep per
// protocol, all replayed through the simulator. "replays" counts the
// fault-free replays of the four slowdown searches; it is deterministic,
// so a change in search cost shows as an exact drift.
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

// BenchmarkRTA measures the sensitivity-analysis machinery (WCRTs, slacks
// and gamma assignment) on the full task set.
func BenchmarkRTA(b *testing.B) {
	a := fullWaters(b)
	cm := dma.DefaultCostModel()
	intf := rta.LETDemand(a, cm, dma.GiottoPerCommSchedule(a))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rta.Gammas(a, intf, 0.2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLETAnalysis measures Algorithm 1 and the activation analysis
// over the full hyperperiod.
func BenchmarkLETAnalysis(b *testing.B) {
	sys := waters.System()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := let.Analyze(sys); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationChannels evaluates the multi-channel DMA extension
// (Section VIII future work): max lambda/T as the channel count grows.
func BenchmarkAblationChannels(b *testing.B) {
	a := fullWaters(b)
	cm := dma.DefaultCostModel()
	solved, err := experiments.SolveProposed(a, experiments.Config{Alpha: 0.2, Objective: dma.MinDelayRatio})
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("k%d", k), func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				asg, err := multidma.GreedyAssign(a, cm, solved.Sched, k)
				if err != nil {
					b.Fatal(err)
				}
				ratio, err = multidma.MaxLatencyRatio(a, cm, solved.Sched, asg)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(ratio, "maxRatio")
		})
	}
}

// BenchmarkDoubleBuffer measures the intra-core double-buffer substrate
// (publish + snapshot round trip on a KiB-scale payload).
func BenchmarkDoubleBuffer(b *testing.B) {
	l := dbuf.New([256]int64{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.WriteBack(func(arr *[256]int64) { arr[0] = int64(i) })
		l.Publish()
		v, _ := l.Snapshot()
		if v[0] != int64(i) {
			b.Fatal("stale snapshot")
		}
	}
}

// BenchmarkTraceExport measures chrome-trace serialization of a simulated
// hyperperiod.
func BenchmarkTraceExport(b *testing.B) {
	a := fullWaters(b)
	cm := dma.DefaultCostModel()
	solved, err := experiments.SolveProposed(a, experiments.Config{Alpha: 0.2, Objective: dma.MinDelayRatio})
	if err != nil {
		b.Fatal(err)
	}
	tr := &trace.Trace{}
	if _, err := sim.Run(sim.Config{Analysis: a, Cost: cm, Sched: solved.Sched, Protocol: sim.Proposed, Trace: tr}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.WriteChrome(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
