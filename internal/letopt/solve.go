package letopt

import (
	"fmt"
	"io"
	"math"
	"time"

	"letdma/internal/dma"
	"letdma/internal/let"
	"letdma/internal/milp"
)

// Options configures a Solve call.
type Options struct {
	// Slots is the number of DMA transfer slots G; 0 or values larger than
	// |C(s0)| default to |C(s0)|. Smaller values shrink the model but
	// restrict the schedule to at most that many transfers.
	Slots int
	// MILP are the branch-and-bound parameters (time limit, gap, logging).
	MILP milp.Params
	// WarmLayout/WarmSched, when both non-nil, install a known-feasible
	// solution (e.g. from internal/combopt) as the initial incumbent.
	WarmLayout *dma.Layout
	WarmSched  *dma.Schedule
}

// Result is the outcome of the MILP optimization.
type Result struct {
	// Layout and Sched are nil unless Status is optimal or feasible.
	Layout *dma.Layout
	Sched  *dma.Schedule
	Status milp.Status
	// StopCause refines an early stop (milp.Solution.StopCause): the
	// letdmad service reads it to tell a deadline interrupt (job completes
	// with its anytime incumbent) from a numerical retreat (retryable)
	// from an exhausted budget (final).
	StopCause milp.StopCause
	// Objective is the achieved MILP objective (0 for NO-OBJ). For
	// OBJ-DMAT it is the integral transfer count, independent of the LP
	// vertex the search landed on.
	Objective float64
	// BestBound is the proven bound on the objective at termination.
	BestBound float64
	Gap       float64
	Nodes     int
	// SimplexIters counts LP iterations (cold pivots plus warm-probe
	// pivots) across the branch-and-bound search.
	SimplexIters int
	// Kernel aggregates the simplex-kernel counters: warm-probe hits, cold
	// fallbacks, phase-1 iterations and refactorizations.
	Kernel  milp.KernelStats
	Runtime time.Duration
	// ModelVars/ModelCons describe the formulation size.
	ModelVars int
	ModelCons int
}

// Solve builds the Section-VI MILP for the analyzed system and optimizes it.
// The returned solution, if any, is re-validated against the model
// semantics (dma.Validate) before being returned.
func Solve(a *let.Analysis, cm dma.CostModel, gamma dma.Deadlines, obj dma.Objective, opts Options) (*Result, error) {
	f, err := newFormulation(a, cm, gamma, obj, opts.Slots)
	if err != nil {
		return nil, err
	}
	if err := f.checkGapSanity(); err != nil {
		return &Result{Status: milp.StatusInfeasible, ModelVars: f.m.NumVars(), ModelCons: f.m.NumCons()}, nil
	}
	if err := f.checkCapacity(); err != nil {
		return &Result{Status: milp.StatusInfeasible, ModelVars: f.m.NumVars(), ModelCons: f.m.NumCons()}, nil
	}

	params := opts.MILP
	if params.BranchPriority == nil {
		params.BranchPriority = f.branchPriorities()
	}
	if opts.WarmLayout != nil && opts.WarmSched != nil {
		ws, err := f.warmStart(opts.WarmLayout, opts.WarmSched)
		if err != nil {
			return nil, err
		}
		params.WarmStart = ws
	}

	sol, err := milp.Solve(f.m, params)
	if err != nil {
		return nil, fmt.Errorf("letopt: %w", err)
	}
	res := &Result{
		Status:       sol.Status,
		StopCause:    sol.StopCause,
		Objective:    sol.Obj,
		BestBound:    sol.BestBound,
		Gap:          sol.Gap,
		Nodes:        sol.Nodes,
		SimplexIters: sol.SimplexIters,
		Kernel:       sol.Kernel,
		Runtime:      sol.Runtime,
		ModelVars:    f.m.NumVars(),
		ModelCons:    f.m.NumCons(),
	}
	if sol.X == nil {
		return res, nil
	}
	if obj == dma.MinTransfers {
		// maxRGI is a continuous column, so its value carries the rounding
		// of whichever optimal LP vertex the search landed on; the
		// objective itself is an integral transfer count.
		n := math.Round(sol.Obj)
		if math.Abs(sol.Obj-n) > 1e-6 {
			return nil, fmt.Errorf("letopt: transfer count %v is not integral", sol.Obj)
		}
		res.Objective = n
	}
	layout, sched, err := f.decode(sol.X)
	if err != nil {
		return nil, fmt.Errorf("letopt: decoding failed: %w", err)
	}
	if err := dma.Validate(a, cm, layout, sched, gamma); err != nil {
		return nil, fmt.Errorf("letopt: MILP solution rejected by validator: %w", err)
	}
	res.Layout = layout
	res.Sched = sched
	return res, nil
}

// WriteLP dumps the formulation for the given configuration in CPLEX LP
// format, for debugging and external cross-checks.
func WriteLP(w io.Writer, a *let.Analysis, cm dma.CostModel, gamma dma.Deadlines, obj dma.Objective, slots int) error {
	f, err := newFormulation(a, cm, gamma, obj, slots)
	if err != nil {
		return err
	}
	return f.m.WriteLP(w)
}

// ModelSize reports the variable and constraint counts of the formulation
// for the given configuration without solving it.
func ModelSize(a *let.Analysis, cm dma.CostModel, gamma dma.Deadlines, obj dma.Objective, slots int) (vars, cons int, err error) {
	f, err := newFormulation(a, cm, gamma, obj, slots)
	if err != nil {
		return 0, 0, err
	}
	return f.m.NumVars(), f.m.NumCons(), nil
}
