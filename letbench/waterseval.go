package main

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"time"

	"letdma/internal/combopt"
	"letdma/internal/dma"
	"letdma/internal/experiments"
	"letdma/internal/let"
	"letdma/internal/model"
	"letdma/internal/rta"
	"letdma/internal/sim"
	"letdma/internal/verify"
	"letdma/internal/waters"
)

// watersRounds is how many shuffled rounds of the artifact ops a
// waters-eval pool holds; a run stops at its time budget long before.
const watersRounds = 40

// watersRoundLen is the number of ops in one round: six Fig. 2 panels,
// Table I, the sensitivity sweep, three grouping and one ordering
// ablation, four simulations and one robustness run.
const watersRoundLen = 17

// robustnessTrials keeps each Robustness op short: the survival sweep
// runs this many seeded trials per error rate and protocol.
const robustnessTrials = 2

// Expected results on full WATERS, as EXPERIMENTS.md reports them.
var (
	wantTransfers   = map[dma.Objective]int{dma.NoObjective: 16, dma.MinTransfers: 14, dma.MinDelayRatio: 14}
	wantBestRatio   = 0.0104 // best Fig. 2 ratio (DASM vs Giotto-CPU), every panel
	wantFeasible    = 4      // alphas 0.2-0.5 of 0.1-0.5
	wantSensRatio   = 0.04253
	wantGranularity = map[combopt.Granularity]struct {
		transfers int
		ratio     float64
	}{
		combopt.GranPerComm: {20, 0.0461},
		combopt.GranBundled: {16, 0.0443},
		combopt.GranMerged:  {14, 0.0425},
	}
	wantOrderProposed = 0.0425
	wantOrderGiotto   = 0.1947
)

// watersEval regenerates the paper's Section VII artifacts on full WATERS
// with the combinatorial solver. It never enters the MILP.
type watersEval struct {
	a       *let.Analysis
	cm, cpu dma.CostModel
	gamma   dma.Deadlines
	sched   *dma.Schedule // OBJ-DEL, alpha 0.2: input of the sim and ordering ops
	ops     []closedOp
	setupTr *tracer
	simJobs int
}

func (w *watersEval) setup(seed int64, tr *tracer) error {
	w.setupTr = tr
	w.cm, w.cpu = dma.DefaultCostModel(), dma.CPUCopyCostModel()
	sys := waters.System()
	var err error
	tr.call("let.Analyze", noSpan, -1, func() { w.a, err = let.Analyze(sys) })
	if err != nil {
		return err
	}
	var intf map[model.CoreID]rta.LETInterference
	tr.call("rta.LETDemand", noSpan, -1, func() { intf = rta.LETDemand(w.a, w.cm, dma.GiottoPerCommSchedule(w.a)) })
	tr.call("rta.Gammas", noSpan, -1, func() { w.gamma, err = rta.Gammas(w.a, intf, 0.2) })
	if err != nil {
		return err
	}
	var comb *combopt.Result
	tr.call("combopt.SolveWithOptions", noSpan, -1, func() {
		comb, err = combopt.SolveWithOptions(w.a, w.cm, w.gamma, dma.MinDelayRatio, combopt.Options{})
	})
	if err != nil {
		return err
	}
	w.sched = comb.Sched

	rng := rand.New(rand.NewSource(seed))
	w.ops = w.ops[:0]
	for r := 0; r < watersRounds; r++ {
		round := []closedOp{w.tableIOp(), w.sensitivityOp(), w.orderingOp(), w.robustnessOp(rng.Int63())}
		for _, obj := range milpObjectives {
			for _, alpha := range []float64{0.2, 0.4} {
				round = append(round, w.fig2Op(obj, alpha))
			}
		}
		for _, g := range []combopt.Granularity{combopt.GranPerComm, combopt.GranBundled, combopt.GranMerged} {
			round = append(round, w.groupingOp(g))
		}
		for _, p := range []sim.Protocol{sim.Proposed, sim.GiottoCPU, sim.GiottoDMAA, sim.GiottoDMAB} {
			round = append(round, w.simOp(p))
		}
		if len(round) != watersRoundLen {
			return fmt.Errorf("round of %d ops, want %d", len(round), watersRoundLen)
		}
		rng.Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
		w.ops = append(w.ops, round...)
	}
	// Warm-up off the clock: one Fig. 2 panel.
	if v := w.fig2Op(dma.MinDelayRatio, 0.2).run(nil, noSpan, -1)(); v.failed != nil || v.wrong != nil {
		return fmt.Errorf("warm-up: %v %v", v.failed, v.wrong)
	}
	return nil
}

func near(got, want, tol float64) bool { return math.Abs(got-want) <= tol }

func wrongf(format string, args ...any) verdict { return verdict{wrong: fmt.Errorf(format, args...)} }

// checkSolved runs the independent solution oracle on an artifact's
// proposed-protocol solution.
func (w *watersEval) checkSolved(s *experiments.Solved) error {
	if vs := verify.CheckSolution(w.a, w.cm, s.Layout, s.Sched, s.Gamma); len(vs) > 0 {
		return fmt.Errorf("verify.CheckSolution: %v", vs[0])
	}
	return nil
}

func (w *watersEval) fig2Op(obj dma.Objective, alpha float64) closedOp {
	return closedOp{kind: "fig2", run: func(tr *tracer, parent spanID, id int) func() verdict {
		var res *experiments.Fig2Result
		var err, rerr error
		tr.call("experiments.Fig2", parent, id, func() {
			res, err = experiments.Fig2(w.a, experiments.Config{Alpha: alpha, Objective: obj})
		})
		if err == nil {
			tr.call("experiments.RenderFig2", parent, id, func() { rerr = experiments.RenderFig2(io.Discard, res) })
		}
		return func() verdict {
			if err != nil || rerr != nil {
				return verdict{failed: fmt.Errorf("fig2 %s a=%.1f: %v %v", obj, alpha, err, rerr)}
			}
			if got := res.Solved.NumTransfers; got != wantTransfers[obj] {
				return wrongf("fig2 %s a=%.1f: %d transfers, want %d", obj, alpha, got, wantTransfers[obj])
			}
			best := math.Inf(1)
			for _, row := range res.Rows {
				best = math.Min(best, row.RatioCPU())
			}
			if !near(best, wantBestRatio, 5e-5) {
				return wrongf("fig2 %s a=%.1f: best ratio %.5f, want %.4f", obj, alpha, best, wantBestRatio)
			}
			if err := w.checkSolved(res.Solved); err != nil {
				return verdict{wrong: err}
			}
			return verdict{}
		}
	}}
}

var tableIAlphas = []float64{0.2, 0.4}

func (w *watersEval) tableIOp() closedOp {
	return closedOp{kind: "table1", run: func(tr *tracer, parent spanID, id int) func() verdict {
		var rows []experiments.TableIRow
		var err, rerr error
		tr.call("experiments.TableI", parent, id, func() { rows, err = experiments.TableI(w.a, tableIAlphas, experiments.Config{}) })
		if err == nil {
			tr.call("experiments.RenderTableI", parent, id, func() { rerr = experiments.RenderTableI(io.Discard, rows, tableIAlphas) })
		}
		return func() verdict {
			if err != nil || rerr != nil {
				return verdict{failed: fmt.Errorf("table1: %v %v", err, rerr)}
			}
			if len(rows) != len(milpObjectives)*len(tableIAlphas) {
				return wrongf("table1: %d rows", len(rows))
			}
			for _, r := range rows {
				if r.NumTransfers != wantTransfers[r.Objective] {
					return wrongf("table1 %s a=%.1f: %d transfers, want %d", r.Objective, r.Alpha, r.NumTransfers, wantTransfers[r.Objective])
				}
			}
			return verdict{}
		}
	}}
}

var sensitivityAlphas = []float64{0.1, 0.2, 0.3, 0.4, 0.5}

func (w *watersEval) sensitivityOp() closedOp {
	return closedOp{kind: "sensitivity", run: func(tr *tracer, parent spanID, id int) func() verdict {
		var rows []experiments.SensitivityRow
		var rerr error
		tr.call("experiments.Sensitivity", parent, id, func() {
			rows = experiments.Sensitivity(w.a, sensitivityAlphas, experiments.Config{})
		})
		tr.call("experiments.RenderSensitivity", parent, id, func() { rerr = experiments.RenderSensitivity(io.Discard, rows) })
		return func() verdict {
			if rerr != nil {
				return verdict{failed: rerr}
			}
			feasible := 0
			for _, r := range rows {
				if !r.Feasible {
					continue
				}
				feasible++
				if !near(r.MaxRatio, wantSensRatio, 5e-6) {
					return wrongf("sensitivity a=%.1f: max ratio %.5f, want %.5f", r.Alpha, r.MaxRatio, wantSensRatio)
				}
			}
			if feasible != wantFeasible || len(rows) == 0 || rows[0].Feasible {
				return wrongf("sensitivity: %d feasible alphas (0.1 feasible: %t), want %d with 0.1 infeasible", feasible, len(rows) > 0 && rows[0].Feasible, wantFeasible)
			}
			return verdict{}
		}
	}}
}

// groupingOp is the grouping ablation: OBJ-DEL restricted to one transfer
// granularity.
func (w *watersEval) groupingOp(g combopt.Granularity) closedOp {
	return closedOp{kind: "grouping", run: func(tr *tracer, parent spanID, id int) func() verdict {
		var res *combopt.Result
		var err error
		tr.call("combopt.SolveWithOptions", parent, id, func() {
			res, err = combopt.SolveWithOptions(w.a, w.cm, w.gamma, dma.MinDelayRatio,
				combopt.Options{Granularities: []combopt.Granularity{g}})
		})
		var ratio float64
		if err == nil {
			tr.call("dma.MaxLatencyRatio", parent, id, func() { ratio = dma.MaxLatencyRatio(w.a, w.cm, res.Sched, dma.PerTaskReadiness) })
		}
		return func() verdict {
			if err != nil {
				return verdict{failed: fmt.Errorf("grouping %s: %v", g, err)}
			}
			want := wantGranularity[g]
			if res.NumTransfers != want.transfers || !near(ratio, want.ratio, 5e-5) {
				return wrongf("grouping %s: %d transfers, ratio %.5f; want %d, %.4f", g, res.NumTransfers, ratio, want.transfers, want.ratio)
			}
			if vs := verify.CheckSolution(w.a, w.cm, res.Layout, res.Sched, w.gamma); len(vs) > 0 {
				return wrongf("grouping %s: verify.CheckSolution: %v", g, vs[0])
			}
			return verdict{}
		}
	}}
}

// orderingOp is the ordering ablation: the same transfers in the proposed
// order with per-task readiness, and in Giotto order (Giotto-DMA-B).
func (w *watersEval) orderingOp() closedOp {
	return closedOp{kind: "ordering", run: func(tr *tracer, parent spanID, id int) func() verdict {
		var proposed, giotto float64
		var reordered *dma.Schedule
		tr.call("dma.MaxLatencyRatio", parent, id, func() { proposed = dma.MaxLatencyRatio(w.a, w.cm, w.sched, dma.PerTaskReadiness) })
		tr.call("dma.GiottoReorder", parent, id, func() { reordered = dma.GiottoReorder(w.a, w.sched) })
		tr.call("dma.MaxLatencyRatio", parent, id, func() { giotto = dma.MaxLatencyRatio(w.a, w.cm, reordered, dma.AfterAllReadiness) })
		return func() verdict {
			if !near(proposed, wantOrderProposed, 5e-5) || !near(giotto, wantOrderGiotto, 5e-5) {
				return wrongf("ordering: ratios %.5f / %.5f, want %.4f / %.4f", proposed, giotto, wantOrderProposed, wantOrderGiotto)
			}
			return verdict{}
		}
	}}
}

// wantProperty3 is the Property-3 violation count per protocol over one
// hyperperiod: none for the DMA protocols; the Giotto-CPU baseline, whose
// CPU copies are slower, spills one sequence past the next instant.
var wantProperty3 = map[sim.Protocol]int{sim.GiottoCPU: 1}

// simOp simulates one hyperperiod under protocol p. The check holds the
// simulator to the analysis: no Property-3 violation for the DMA protocols,
// and every task's simulated worst latency equals dma.WorstLatency for
// that protocol.
func (w *watersEval) simOp(p sim.Protocol) closedOp {
	return closedOp{kind: "sim", run: func(tr *tracer, parent spanID, id int) func() verdict {
		var res *sim.Result
		var err error
		tr.call("sim.Run", parent, id, func() {
			res, err = sim.Run(sim.Config{Analysis: w.a, Cost: w.cm, CPUCost: w.cpu, Sched: w.sched, Protocol: p})
		})
		return func() verdict {
			if err != nil {
				return verdict{failed: fmt.Errorf("sim %s: %v", p, err)}
			}
			if want := wantProperty3[p]; res.Property3Violations != want {
				return wrongf("sim %s: %d Property-3 violations, want %d", p, res.Property3Violations, want)
			}
			cm, sched, rule := w.cm, w.sched, dma.AfterAllReadiness
			switch p {
			case sim.Proposed:
				rule = dma.PerTaskReadiness
			case sim.GiottoCPU:
				cm, sched = w.cpu, dma.GiottoPerCommSchedule(w.a)
			case sim.GiottoDMAA:
				sched = dma.GiottoPerCommSchedule(w.a)
			case sim.GiottoDMAB:
				sched = dma.GiottoReorder(w.a, w.sched)
			}
			for _, task := range w.a.Sys.Tasks {
				st := res.Stats[task.ID]
				if st == nil {
					return wrongf("sim %s: no stats for %s", p, task.Name)
				}
				w.simJobs += st.Jobs
				if want := dma.WorstLatency(w.a, cm, sched, task.ID, rule); st.MaxLatency != want {
					return wrongf("sim %s: %s worst latency %v, analysis says %v", p, task.Name, st.MaxLatency, want)
				}
			}
			return verdict{}
		}
	}}
}

// robustnessOp runs a short seeded robustness experiment. The fault-free
// critical slowdown does not depend on the seed, so every op must find the
// same margins; the solution itself goes through the solution oracle.
func (w *watersEval) robustnessOp(seed int64) closedOp {
	return closedOp{kind: "robustness", run: func(tr *tracer, parent spanID, id int) func() verdict {
		var res *experiments.RobustnessResult
		var err, rerr error
		tr.call("experiments.Robustness", parent, id, func() {
			res, err = experiments.Robustness(w.a, experiments.Config{Alpha: 0.2, Objective: dma.MinDelayRatio},
				experiments.RobustnessConfig{Seed: seed, Trials: robustnessTrials})
		})
		if err == nil {
			tr.call("experiments.RenderRobustness", parent, id, func() { rerr = experiments.RenderRobustness(io.Discard, res) })
		}
		return func() verdict {
			if err != nil || rerr != nil {
				return verdict{failed: fmt.Errorf("robustness: %v %v", err, rerr)}
			}
			if len(res.Margins) != 4 {
				return wrongf("robustness: %d margins, want 4", len(res.Margins))
			}
			if got := res.Margins[0].CriticalSlowdownPermille; got != wantProposedSlowdown {
				return wrongf("robustness: proposed critical slowdown %d permille, want %d", got, wantProposedSlowdown)
			}
			if err := w.checkSolved(res.Solved); err != nil {
				return verdict{wrong: err}
			}
			return verdict{}
		}
	}}
}

// wantProposedSlowdown is the fault-free critical copy-cost slowdown of the
// proposed protocol on WATERS (ROADMAP: "every deadline up to ~2.99x").
const wantProposedSlowdown = 2991

func (w *watersEval) measure(budget time.Duration, maxOps int, tr *tracer) (*runStats, error) {
	w.simJobs = 0
	rs := runClosed(w.ops, watersRoundLen, budget, maxOps, tr)
	if tr == nil {
		return rs, nil
	}
	st, setup := tr.byName(), w.setupTr.byName()
	simS := spanSum(st, "sim.Run")
	rs.layers = map[string]float64{
		"let.analyze_s":             spanSum(setup, "let.Analyze"),
		"rta.gammas_s":              spanSum(setup, "rta.LETDemand", "rta.Gammas"),
		"combopt.solve_s":           spanSum(st, "combopt.SolveWithOptions") + spanSum(setup, "combopt.SolveWithOptions"),
		"combopt.calls":             spanCalls(st, "combopt.SolveWithOptions") + spanCalls(setup, "combopt.SolveWithOptions"),
		"dma.latency_s":             spanSum(st, "dma.MaxLatencyRatio", "dma.GiottoReorder"),
		"sim.run_s":                 simS,
		"sim.jobs":                  float64(w.simJobs),
		"sim.jobs_per_s":            float64(w.simJobs) / simS,
		"experiments.fig2_s":        spanSum(st, "experiments.Fig2"),
		"experiments.table1_s":      spanSum(st, "experiments.TableI"),
		"experiments.sensitivity_s": spanSum(st, "experiments.Sensitivity"),
		"experiments.robustness_s":  spanSum(st, "experiments.Robustness"),
		"experiments.render_s": spanSum(st, "experiments.RenderFig2", "experiments.RenderTableI",
			"experiments.RenderSensitivity", "experiments.RenderRobustness"),
	}
	return rs, nil
}

func (w *watersEval) shares(recs []opRecord) []string { return kindShares("artifact", recs) }

func (w *watersEval) prepare(int64) error { return nil }

func (w *watersEval) close() error { return nil }
