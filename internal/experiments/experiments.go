// Package experiments regenerates every table and figure of the paper's
// evaluation (Section VII):
//
//   - Fig. 2(a)-(f): per-task ratios between the data-acquisition latency
//     of the proposed protocol and the three baselines (Giotto-CPU,
//     Giotto-DMA-A, Giotto-DMA-B), for each objective and alpha;
//   - Table I: solver running times and number of DMA transfers per
//     objective and alpha;
//   - the alpha-sensitivity discussion (alpha = 0.1 infeasible, 0.2-0.5
//     feasible).
//
// The harness is parameterized by the system under study, so the same code
// drives the full WATERS 2019 case study, the reduced variant, and the
// synthetic generators.
package experiments

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"

	"letdma/internal/combopt"
	"letdma/internal/dma"
	"letdma/internal/let"
	"letdma/internal/letopt"
	"letdma/internal/milp"
	"letdma/internal/model"
	"letdma/internal/rta"
	"letdma/internal/timeutil"
)

// SolverKind selects how the proposed protocol's schedule is computed.
type SolverKind int

const (
	// SolverComb uses the combinatorial optimizer only (fast).
	SolverComb SolverKind = iota
	// SolverMILP uses the MILP with the combinatorial solution as warm
	// start, honoring the configured time limit (the paper's CPLEX
	// methodology, including the OBJ-DMAT timeout behaviour).
	SolverMILP
)

// String names the solver.
func (s SolverKind) String() string {
	if s == SolverComb {
		return "comb"
	}
	return "milp"
}

// Config parameterizes one experiment run.
type Config struct {
	Alpha     float64
	Objective dma.Objective
	Solver    SolverKind
	// MILPTimeLimit bounds the MILP search (default 60s).
	MILPTimeLimit time.Duration
	// Slots caps the MILP transfer slots (0 = |C(s0)|).
	Slots int
	// Workers is the FastSearch worker count (milp.Params.Workers). The
	// combinatorial solver and the default depth-first MILP ignore it.
	Workers int
	// FastSearch switches the MILP to the nondeterministic work-stealing
	// engine (milp.Params.FastSearch): same certified optimum, no
	// bit-identical trajectory, so experiments that pin node or
	// iteration counts must leave it off. Callers needing an audited
	// result gate it through verify.CheckOptimal.
	FastSearch bool
	// MILPLog, if non-nil, receives the MILP solver's progress lines,
	// including the per-solve kernel counters (warm_hits, warm_expands,
	// cold_solves, refactors).
	MILPLog io.Writer
	// Interrupt, when non-nil, is passed to the MILP search: closing it
	// stops the solve at the next node boundary with the incumbent
	// anytime solution. letdma wires SIGINT to this.
	Interrupt <-chan struct{}
}

func (c *Config) fill() {
	if c.MILPTimeLimit == 0 {
		c.MILPTimeLimit = 60 * time.Second
	}
}

// Solved bundles one optimized solution with its provenance.
type Solved struct {
	Layout       *dma.Layout
	Sched        *dma.Schedule
	Gamma        dma.Deadlines
	NumTransfers int
	SolveTime    time.Duration
	// MILPStatus is set when the MILP ran (optimal/feasible).
	MILPStatus string
	// Objective value under the configured objective.
	Objective float64
	// DPStates is the combinatorial solver's ordering-DP state count
	// (combopt.Result.DPStates).
	DPStates int
	// MILP is the raw MILP result, nil when only the combinatorial solver
	// ran. Callers that certify the result read it together with Gamma:
	// the letdmad service replays FastSearch incumbents through
	// verify.CheckOptimal and reads Result.StopCause for its retry policy.
	MILP *letopt.Result
}

// ErrInfeasible marks a SolveProposed failure in the combinatorial stage:
// no layout and schedule meet the derived deadlines at any granularity
// (e.g. the alpha = 0.1 configurations of Section VII).
var ErrInfeasible = errors.New("infeasible")

// SolveProposed derives gamma from the alpha-sensitivity procedure, runs
// the configured solver(s) and returns the winning solution.
func SolveProposed(a *let.Analysis, cfg Config) (*Solved, error) {
	return solveProposed(a, cfg, giottoDemand(a))
}

// giottoDemand is the LET dispatcher interference of the Giotto per-comm
// schedule, the demand the alpha-sensitivity procedure derives gamma
// from. It does not depend on alpha, so a sweep computes it once.
func giottoDemand(a *let.Analysis) map[model.CoreID]rta.LETInterference {
	return rta.LETDemand(a, dma.DefaultCostModel(), dma.GiottoPerCommSchedule(a))
}

// solveProposed is SolveProposed with the Giotto demand intf supplied.
func solveProposed(a *let.Analysis, cfg Config, intf map[model.CoreID]rta.LETInterference) (*Solved, error) {
	cfg.fill()
	cm := dma.DefaultCostModel()
	var gamma dma.Deadlines
	if cfg.Alpha > 0 {
		var err error
		gamma, err = rta.Gammas(a, intf, cfg.Alpha)
		if err != nil {
			return nil, fmt.Errorf("experiments: alpha=%.2f: %w", cfg.Alpha, err)
		}
	}

	start := time.Now()
	comb, err := combopt.Solve(a, cm, gamma, cfg.Objective)
	if err != nil {
		return nil, fmt.Errorf("experiments: alpha=%.2f %w: %w", cfg.Alpha, ErrInfeasible, err)
	}
	solved := &Solved{
		Layout:       comb.Layout,
		Sched:        comb.Sched,
		Gamma:        gamma,
		NumTransfers: comb.NumTransfers,
		Objective:    comb.Objective,
		SolveTime:    time.Since(start),
		DPStates:     comb.DPStates,
	}
	if cfg.Solver == SolverMILP {
		res, err := letopt.Solve(a, cm, gamma, cfg.Objective, letopt.Options{
			Slots:      cfg.Slots,
			MILP:       milp.Params{TimeLimit: cfg.MILPTimeLimit, Workers: cfg.Workers, FastSearch: cfg.FastSearch, Log: cfg.MILPLog, Interrupt: cfg.Interrupt},
			WarmLayout: comb.Layout,
			WarmSched:  comb.Sched,
		})
		if err != nil {
			return nil, err
		}
		solved.MILP = res
		solved.SolveTime = time.Since(start)
		solved.MILPStatus = res.Status.String()
		if res.Sched != nil {
			solved.Layout = res.Layout
			solved.Sched = res.Sched
			solved.NumTransfers = res.Sched.NumTransfers()
			solved.Objective = res.Objective
		}
	}
	return solved, nil
}

// Fig2Row holds the four per-task worst-case data-acquisition latencies.
type Fig2Row struct {
	Task     string
	Proposed timeutil.Time
	CPU      timeutil.Time
	DMAA     timeutil.Time
	DMAB     timeutil.Time
}

// RatioCPU returns lambda_proposed / lambda_GiottoCPU (Fig. 2 Y-axis).
func (r Fig2Row) RatioCPU() float64 { return ratio(r.Proposed, r.CPU) }

// RatioDMAA returns lambda_proposed / lambda_GiottoDMAA.
func (r Fig2Row) RatioDMAA() float64 { return ratio(r.Proposed, r.DMAA) }

// RatioDMAB returns lambda_proposed / lambda_GiottoDMAB.
func (r Fig2Row) RatioDMAB() float64 { return ratio(r.Proposed, r.DMAB) }

// ratio divides two latencies, guarding the zero-latency baseline case: a
// write-only task with an empty read set has latency 0 under a baseline,
// and a naive division would render +Inf (or, for 0/0, NaN) into the
// Fig. 2 tables. Equal zero latencies are a genuine ratio of 1; a nonzero
// latency against a zero baseline has no defined ratio and returns the NaN
// sentinel, which the renderers print as "n/a".
func ratio(a, b timeutil.Time) float64 {
	if b == 0 {
		if a == 0 {
			return 1
		}
		return math.NaN()
	}
	return float64(a) / float64(b)
}

// fmtRatio renders a latency ratio for the text tables, mapping the
// undefined-ratio sentinel to "n/a".
func fmtRatio(r float64) string {
	if math.IsNaN(r) {
		return "n/a"
	}
	return fmt.Sprintf("%.3f", r)
}

// Fig2Result is one panel of Fig. 2.
type Fig2Result struct {
	Alpha     float64
	Objective dma.Objective
	Rows      []Fig2Row
	Solved    *Solved
}

// Fig2 computes one panel of Fig. 2 for the given system and configuration.
// Latencies are the worst case over the hyperperiod (attained at s0 by
// Theorem 1).
func Fig2(a *let.Analysis, cfg Config) (*Fig2Result, error) {
	solved, err := SolveProposed(a, cfg)
	if err != nil {
		return nil, err
	}
	cm := dma.DefaultCostModel()
	cpuCM := dma.CPUCopyCostModel()
	perComm := dma.GiottoPerCommSchedule(a)
	dmaB := dma.GiottoReorder(a, solved.Sched)

	out := &Fig2Result{Alpha: cfg.Alpha, Objective: cfg.Objective, Solved: solved}
	for _, task := range tasksByName(a.Sys) {
		out.Rows = append(out.Rows, Fig2Row{
			Task:     task.Name,
			Proposed: dma.WorstLatency(a, cm, solved.Sched, task.ID, dma.PerTaskReadiness),
			CPU:      dma.WorstLatency(a, cpuCM, perComm, task.ID, dma.AfterAllReadiness),
			DMAA:     dma.WorstLatency(a, cm, perComm, task.ID, dma.AfterAllReadiness),
			DMAB:     dma.WorstLatency(a, cm, dmaB, task.ID, dma.AfterAllReadiness),
		})
	}
	return out, nil
}

// tasksByName returns the tasks ordered by task ID (stable across runs).
func tasksByName(sys *model.System) []*model.Task {
	out := append([]*model.Task(nil), sys.Tasks...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// RenderFig2 prints one Fig. 2 panel as an aligned text table.
func RenderFig2(w io.Writer, r *Fig2Result) error {
	ew := &errWriter{w: w}
	ew.printf("Fig.2 panel: %s, alpha=%.1f (%d transfers, solved in %v%s)\n",
		r.Objective, r.Alpha, r.Solved.NumTransfers, r.Solved.SolveTime.Round(time.Millisecond), milpNote(r.Solved))
	ew.printf("%-6s %12s %12s %12s %12s %8s %8s %8s\n",
		"task", "lam(ours)", "lam(CPU)", "lam(DMA-A)", "lam(DMA-B)", "r(CPU)", "r(DMA-A)", "r(DMA-B)")
	for _, row := range r.Rows {
		ew.printf("%-6s %12s %12s %12s %12s %8s %8s %8s\n",
			row.Task, row.Proposed, row.CPU, row.DMAA, row.DMAB,
			fmtRatio(row.RatioCPU()), fmtRatio(row.RatioDMAA()), fmtRatio(row.RatioDMAB()))
	}
	return ew.err
}

func milpNote(s *Solved) string {
	if s.MILPStatus == "" {
		return ""
	}
	return ", milp=" + s.MILPStatus
}

// TableIRow is one row of Table I.
type TableIRow struct {
	Objective    dma.Objective
	Alpha        float64
	SolveTime    time.Duration
	NumTransfers int
	MILPStatus   string
}

// TableI reproduces Table I: for each objective and alpha, the solver
// running time and the number of DMA transfers at s0. Rows are
// objective-major, alpha-minor.
func TableI(a *let.Analysis, alphas []float64, base Config) ([]TableIRow, error) {
	intf := giottoDemand(a)
	var rows []TableIRow
	for _, obj := range []dma.Objective{dma.NoObjective, dma.MinTransfers, dma.MinDelayRatio} {
		for _, alpha := range alphas {
			cfg := base
			cfg.Alpha = alpha
			cfg.Objective = obj
			solved, err := solveProposed(a, cfg, intf)
			if err != nil {
				return nil, err
			}
			rows = append(rows, TableIRow{
				Objective:    obj,
				Alpha:        alpha,
				SolveTime:    solved.SolveTime,
				NumTransfers: solved.NumTransfers,
				MILPStatus:   solved.MILPStatus,
			})
		}
	}
	return rows, nil
}

// RenderTableI prints Table I in the paper's layout.
func RenderTableI(w io.Writer, rows []TableIRow, alphas []float64) error {
	ew := &errWriter{w: w}
	ew.printf("%-10s", "Obj.")
	for _, al := range alphas {
		ew.printf(" %14s", fmt.Sprintf("time a=%.1f", al))
	}
	for _, al := range alphas {
		ew.printf(" %12s", fmt.Sprintf("#DMA a=%.1f", al))
	}
	ew.newline()
	for _, obj := range []dma.Objective{dma.NoObjective, dma.MinTransfers, dma.MinDelayRatio} {
		ew.printf("%-10s", obj)
		for _, al := range alphas {
			r := findRow(rows, obj, al)
			if r == nil {
				ew.printf(" %14s", "-")
				continue
			}
			ew.printf(" %14s", r.SolveTime.Round(time.Millisecond))
		}
		for _, al := range alphas {
			r := findRow(rows, obj, al)
			if r == nil {
				ew.printf(" %12s", "-")
				continue
			}
			ew.printf(" %12d", r.NumTransfers)
		}
		ew.newline()
	}
	return ew.err
}

func findRow(rows []TableIRow, obj dma.Objective, alpha float64) *TableIRow {
	for i := range rows {
		if rows[i].Objective == obj && rows[i].Alpha == alpha {
			return &rows[i]
		}
	}
	return nil
}

// SensitivityRow reports feasibility per alpha.
type SensitivityRow struct {
	Alpha    float64
	Feasible bool
	Reason   string
	MaxRatio float64 // max lambda_i/T_i of the solution when feasible
	DPStates int     // Solved.DPStates of the solution when feasible
}

// Sensitivity sweeps alpha as in Section VII (alpha in {0.1, ..., 0.5}).
func Sensitivity(a *let.Analysis, alphas []float64, base Config) []SensitivityRow {
	intf := giottoDemand(a)
	var out []SensitivityRow
	for _, alpha := range alphas {
		cfg := base
		cfg.Alpha = alpha
		cfg.Objective = dma.MinDelayRatio
		solved, err := solveProposed(a, cfg, intf)
		if err != nil {
			out = append(out, SensitivityRow{Alpha: alpha, Feasible: false, Reason: trimErr(err)})
			continue
		}
		cm := dma.DefaultCostModel()
		out = append(out, SensitivityRow{
			Alpha:    alpha,
			Feasible: true,
			MaxRatio: dma.MaxLatencyRatio(a, cm, solved.Sched, dma.PerTaskReadiness),
			DPStates: solved.DPStates,
		})
	}
	return out
}

func trimErr(err error) string {
	s := err.Error()
	if i := strings.IndexByte(s, ':'); i >= 0 && len(s) > i+2 {
		s = s[i+2:]
	}
	if len(s) > 90 {
		s = s[:90] + "..."
	}
	return s
}

// RenderSensitivity prints the alpha sweep.
func RenderSensitivity(w io.Writer, rows []SensitivityRow) error {
	ew := &errWriter{w: w}
	ew.printf("%-8s %-10s %-12s %s\n", "alpha", "feasible", "max lam/T", "note")
	for _, r := range rows {
		if r.Feasible {
			ew.printf("%-8.1f %-10t %-12.5f\n", r.Alpha, true, r.MaxRatio)
		} else {
			ew.printf("%-8.1f %-10t %-12s %s\n", r.Alpha, false, "-", r.Reason)
		}
	}
	return ew.err
}
