package verify

import (
	"strings"
	"time"

	"letdma/internal/combopt"
	"letdma/internal/dma"
	"letdma/internal/let"
	"letdma/internal/letopt"
	"letdma/internal/milp"
	"letdma/internal/rta"
	"letdma/internal/sim"
	"letdma/internal/sysgen"
	"letdma/internal/timeutil"
	"letdma/internal/violation"
)

// Options tunes the differential harness.
type Options struct {
	// MILPTimeLimit bounds each MILP solve. A solve that neither proves
	// optimality nor infeasibility within the limit is excluded from the
	// cross-solver comparison (not a violation). Default 10s.
	MILPTimeLimit time.Duration
	// MILPMaxComms skips the MILP on instances with more communications
	// (the formulation grows combinatorially). Default 5.
	MILPMaxComms int
	// ExhaustiveBudget is the candidate budget for brute-force
	// enumeration; instances above it skip the exhaustive cross-check.
	// Default 20000 — tighter than letopt.ExhaustiveMaxCandidates,
	// because the harness validates every candidate on dense co-prime
	// instant sets.
	ExhaustiveBudget int64
	// SimHyperperiods is how many hyperperiods the simulator replays when
	// cross-checking measured against analytic latencies. Default 2.
	SimHyperperiods int
	// Workers is the FastSearch lane's worker count (milp.Params.Workers);
	// only FastSearch reads it.
	Workers int
	// FastSearch additionally solves each MILP-tractable instance with
	// the nondeterministic work-stealing engine (milp.Params.FastSearch)
	// and gates the outcome through CheckOptimal. Unlike every other
	// path, the fast engine carries no bit-identity guarantee — its node
	// order depends on goroutine scheduling — so what the harness holds
	// it to is the certified contract: a feasible incumbent, an honestly
	// reported objective, and the same decided status and optimum as the
	// deterministic engine.
	FastSearch bool
	// Alpha is the per-core utilization share granted to DMA management
	// when deriving the data-acquisition deadlines gamma_i via response
	// time analysis (as in the paper's Section VII campaigns). When the
	// RTA cannot grant the share, the harness falls back to unconstrained
	// deadlines. Negative disables deadlines entirely; 0 selects the
	// default of 0.2.
	Alpha float64
}

func (o Options) fill() Options {
	if o.MILPTimeLimit == 0 {
		o.MILPTimeLimit = 10 * time.Second
	}
	if o.MILPMaxComms == 0 {
		o.MILPMaxComms = 5
	}
	if o.ExhaustiveBudget == 0 {
		o.ExhaustiveBudget = 20_000
	}
	if o.SimHyperperiods == 0 {
		o.SimHyperperiods = 2
	}
	if o.Alpha == 0 {
		o.Alpha = 0.2
	}
	return o
}

// Report is the outcome of one differential run.
type Report struct {
	Name string
	// NumComms is the size of C(s0); zero for degenerate scenarios.
	NumComms int
	// Paths lists which checks actually ran ("oracle", "combopt",
	// "milp", "exhaustive", "sim"), so a clean report cannot silently
	// mean "nothing was checked".
	Paths []string
	// Violations is empty iff every executed check passed.
	Violations violation.List
}

func (r *Report) ran(path string) {
	for _, p := range r.Paths {
		if p == path {
			return
		}
	}
	r.Paths = append(r.Paths, path)
}

// CheckScenario runs the full differential pipeline on one generated
// scenario: the analysis-level oracle, the combinatorial solver, the
// MILP and brute-force enumeration where tractable — every produced
// solution re-checked by the oracle, every pair of exact solvers
// compared on objective value and feasibility under OBJ-DMAT and OBJ-DEL
// — and the discrete-event
// simulator against the analytic latencies.
func CheckScenario(sc *sysgen.Scenario, opts Options) *Report {
	opts = opts.fill()
	rep := &Report{Name: sc.Name}
	cm := dma.DefaultCostModel()

	a, err := let.Analyze(sc.Sys)
	if sc.ExpectNoComm {
		rep.ran("oracle")
		if err == nil || !strings.Contains(err.Error(), "no inter-core") {
			rep.Violations.Addf(violation.Activation, "Section IV",
				"%s: degenerate system not rejected with a no-inter-core error: %v", sc.Name, err)
		}
		return rep
	}
	if err != nil {
		rep.Violations.Addf(violation.Activation, "Section IV", "%s: let.Analyze: %v", sc.Name, err)
		return rep
	}
	rep.NumComms = a.NumComms()

	rep.ran("oracle")
	rep.Violations.Merge(sc.Name, CheckAnalysis(a))

	gamma := deriveGamma(a, cm, opts.Alpha)

	var simSched *dma.Schedule
	for _, obj := range []dma.Objective{dma.MinTransfers, dma.MinDelayRatio} {
		res := runSolvers(a, cm, gamma, obj, opts, rep)
		rep.Violations.Merge(sc.Name, compareSolvers(sc, a, cm, obj, res))
		if simSched == nil && res.comb != nil {
			simSched = res.comb.Sched
		}
	}

	if simSched != nil {
		rep.ran("sim")
		rep.Violations.Merge(sc.Name, checkSim(a, cm, simSched, opts.SimHyperperiods))
		rep.ran("faultsim")
		rep.Violations.Merge(sc.Name, CheckFaultedSim(a, cm, simSched, sysgen.FaultModels(sc.Seed), opts.SimHyperperiods))
	}
	return rep
}

// solverRuns collects one objective's solver outcomes. A nil pointer
// means that path was skipped or failed to produce a comparable answer.
type solverRuns struct {
	comb       *combopt.Result
	combErr    error
	milp       *letopt.Result
	exhaustive *letopt.ExhaustiveResult
}

func runSolvers(a *let.Analysis, cm dma.CostModel, gamma dma.Deadlines, obj dma.Objective, opts Options, rep *Report) solverRuns {
	var res solverRuns

	rep.ran("combopt")
	res.comb, res.combErr = combopt.Solve(a, cm, gamma, obj)
	if res.comb != nil {
		rep.Violations.Merge("combopt/"+obj.String(), CheckSolution(a, cm, res.comb.Layout, res.comb.Sched, gamma))
	}

	if letopt.ExhaustiveTractable(a, opts.ExhaustiveBudget) {
		rep.ran("exhaustive")
		ex, err := letopt.Exhaustive(a, cm, gamma, obj, opts.ExhaustiveBudget)
		if err == nil {
			res.exhaustive = ex
			if ex.Feasible {
				rep.Violations.Merge("exhaustive/"+obj.String(), CheckSolution(a, cm, ex.Layout, ex.Sched, gamma))
			}
		}
	}

	if a.NumComms() <= opts.MILPMaxComms {
		rep.ran("milp")
		sol, err := letopt.Solve(a, cm, gamma, obj, letopt.Options{
			MILP: milp.Params{TimeLimit: opts.MILPTimeLimit},
		})
		if err == nil && (sol.Status == milp.StatusOptimal || sol.Status == milp.StatusInfeasible) {
			res.milp = sol
			if sol.Status == milp.StatusOptimal {
				rep.Violations.Merge("milp/"+obj.String(), CheckSolution(a, cm, sol.Layout, sol.Sched, gamma))
			}
		}

		if opts.FastSearch {
			rep.ran("fastsearch")
			fast, err := letopt.Solve(a, cm, gamma, obj, letopt.Options{
				MILP: milp.Params{TimeLimit: opts.MILPTimeLimit, Workers: opts.Workers, FastSearch: true},
			})
			if err != nil {
				// letopt rejects validator-failing decodes with an error, so
				// a FastSearch incumbent that does not survive dma.Validate
				// surfaces here rather than as a nil result.
				rep.Violations.Addf(violation.Objective, "Differential",
					"fastsearch/%s: %v", obj, err)
			} else {
				rep.Violations.Merge("fastsearch/"+obj.String(),
					CheckOptimal(a, cm, gamma, obj, fast, OptimalOptions{
						Reference: res.milp,
						TimeLimit: opts.MILPTimeLimit,
					}))
			}
		}
	}
	return res
}

// compareSolvers cross-checks the outcomes of one objective.
//
// The implications it enforces are all sound (no heuristic-completeness
// assumption): a heuristic witness that passed the validator proves
// feasibility, so brute force must find one too; two exact methods must
// agree on both feasibility and optimal value; a heuristic may trail the
// optimum but never beat it; and a scenario built to be infeasible
// (sysgen.Scenario.ExpectInfeasible) must be reported infeasible by
// every path that ran. The one-sided case "combopt fails but an optimum
// exists" is NOT flagged: the grouping heuristic is incomplete by
// design (Section VII).
func compareSolvers(sc *sysgen.Scenario, a *let.Analysis, cm dma.CostModel, obj dma.Objective, res solverRuns) violation.List {
	var vs violation.List
	tag := obj.String()

	exFeasible := res.exhaustive != nil && res.exhaustive.Feasible
	exInfeasible := res.exhaustive != nil && !res.exhaustive.Feasible

	if sc.ExpectInfeasible {
		if res.comb != nil {
			vs.Addf(violation.Objective, "Differential", "%s: combopt solved a provably infeasible instance", tag)
		}
		if exFeasible {
			vs.Addf(violation.Objective, "Differential", "%s: exhaustive found a witness on a provably infeasible instance", tag)
		}
		if res.milp != nil && res.milp.Status == milp.StatusOptimal {
			vs.Addf(violation.Objective, "Differential", "%s: MILP solved a provably infeasible instance", tag)
		}
	}

	if res.comb != nil && exInfeasible {
		vs.Addf(violation.Objective, "Differential",
			"%s: combopt witness passed validation but exhaustive enumeration found no feasible candidate", tag)
	}
	if res.milp != nil && res.exhaustive != nil {
		milpOptimal := res.milp.Status == milp.StatusOptimal
		switch {
		case milpOptimal && exInfeasible:
			vs.Addf(violation.Objective, "Differential",
				"%s: MILP proved optimality but exhaustive enumeration says infeasible", tag)
		case !milpOptimal && exFeasible:
			vs.Addf(violation.Objective, "Differential",
				"%s: MILP proved infeasibility but exhaustive optimum is %g", tag, res.exhaustive.Objective)
		case milpOptimal && exFeasible:
			got := achieved(a, cm, obj, res.milp.Sched)
			if diff := got - res.exhaustive.Objective; diff > 1e-9 || diff < -1e-9 {
				vs.Addf(violation.Objective, "Differential",
					"%s: MILP optimum %g != exhaustive optimum %g", tag, got, res.exhaustive.Objective)
			}
		}
	}
	if res.comb != nil && exFeasible {
		got := achieved(a, cm, obj, res.comb.Sched)
		if got < res.exhaustive.Objective-1e-9 {
			vs.Addf(violation.Objective, "Differential",
				"%s: combopt achieves %g, beating the exhaustive optimum %g", tag, got, res.exhaustive.Objective)
		}
	}
	return vs
}

// checkSim replays the proposed protocol in the discrete-event simulator
// and compares every measured data-acquisition latency against the
// analytic dma.Latency at the release instant folded into [0, H).
func checkSim(a *let.Analysis, cm dma.CostModel, sched *dma.Schedule, hyperperiods int) violation.List {
	var vs violation.List
	res, err := sim.Run(sim.Config{
		Analysis:     a,
		Cost:         cm,
		Sched:        sched,
		Protocol:     sim.Proposed,
		Hyperperiods: hyperperiods,
	})
	if err != nil {
		vs.Addf(violation.Simulation, "Section V", "sim: %v", err)
		return vs
	}
	for _, task := range a.Sys.Tasks {
		for k, lat := range res.LatencyAt[task.ID] {
			rel := timeutil.Time(k) * task.Period
			t0 := timeutil.Time(int64(rel) % int64(a.H))
			want := dma.Latency(a, cm, sched, t0, task.ID, dma.PerTaskReadiness)
			if lat != want {
				vs.Addf(violation.Simulation, "Section V",
					"task %s released at %v: simulated latency %v, analytic %v", task.Name, rel, lat, want)
			}
		}
	}
	if res.Property3Violations != 0 {
		vs.Addf(violation.Property3, "Constraint 10",
			"simulator observed %d sequences spilling past the next instant", res.Property3Violations)
	}
	return vs
}

// deriveGamma computes the data-acquisition deadlines the way the
// paper's campaigns do: response-time slack under a Giotto per-comm
// interference bound, with share alpha granted to DMA management. Nil
// (unconstrained) when alpha <= 0 or the RTA cannot grant the share.
func deriveGamma(a *let.Analysis, cm dma.CostModel, alpha float64) dma.Deadlines {
	if alpha <= 0 {
		return nil
	}
	intf := rta.LETDemand(a, cm, dma.GiottoPerCommSchedule(a))
	gamma, err := rta.Gammas(a, intf, alpha)
	if err != nil {
		return nil
	}
	return gamma
}

// achieved recomputes the objective a schedule attains, so comparisons
// never trust a solver's self-reported value.
func achieved(a *let.Analysis, cm dma.CostModel, obj dma.Objective, sched *dma.Schedule) float64 {
	switch obj {
	case dma.MinTransfers:
		return float64(sched.NumTransfers())
	case dma.MinDelayRatio:
		return dma.MaxLatencyRatio(a, cm, sched, dma.PerTaskReadiness)
	default:
		return 0
	}
}
