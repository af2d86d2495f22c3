package combopt

import (
	"fmt"
	"math"

	"letdma/internal/dma"
	"letdma/internal/let"
	"letdma/internal/ordered"
)

// Granularity names the grouping level a solution was built at.
type Granularity string

const (
	// GranMerged uses chain-merged bundles (fewest transfers).
	GranMerged Granularity = "merged"
	// GranBundled uses signature bundles without chain merging.
	GranBundled Granularity = "bundled"
	// GranPerComm uses one transfer per communication.
	GranPerComm Granularity = "per-comm"
)

// Options tunes the combinatorial solver.
type Options struct {
	// Granularities to try, most aggressive first. Defaults to
	// merged, bundled, per-comm.
	Granularities []Granularity
}

// Result is a feasible solution of the LET-DMA problem.
type Result struct {
	Layout *dma.Layout
	Sched  *dma.Schedule
	// Objective is the achieved objective value: max_i lambda_i/T_i for
	// MinDelayRatio, the transfer count for MinTransfers, and the
	// max_i lambda_i/gamma_i feasibility margin for NoObjective.
	Objective    float64
	NumTransfers int
	Granularity  Granularity
	ExactOrder   bool
	// DPStates counts the states the exact ordering DP expanded, summed
	// over every granularity the solve tried, infeasible ones included.
	DPStates int
}

// Solve builds a feasible memory layout and DMA schedule for the system
// analyzed in a, under cost model cm and data-acquisition deadlines gamma,
// optimizing the given objective. It returns an error if no feasible
// solution exists at any granularity (e.g. the alpha = 0.1 configurations
// of Section VII).
func Solve(a *let.Analysis, cm dma.CostModel, gamma dma.Deadlines, obj dma.Objective) (*Result, error) {
	return SolveWithOptions(a, cm, gamma, obj, Options{})
}

// SolveWithOptions is Solve with explicit tuning options.
func SolveWithOptions(a *let.Analysis, cm dma.CostModel, gamma dma.Deadlines, obj dma.Objective, opts Options) (*Result, error) {
	if len(opts.Granularities) == 0 {
		if obj == dma.NoObjective {
			// Pure feasibility: stop at the natural bundle granularity, as
			// a modeler without the transfer-count objective would (the
			// paper's NO-OBJ run also returns more transfers than
			// OBJ-DMAT).
			opts.Granularities = []Granularity{GranBundled, GranMerged, GranPerComm}
		} else {
			opts.Granularities = []Granularity{GranMerged, GranBundled, GranPerComm}
		}
	}

	var best *Result
	var firstErr error
	states := 0
	for _, gran := range opts.Granularities {
		// Under OBJ-DEL a granularity only counts if it beats the
		// incumbent, so the incumbent's objective bounds its ordering DP.
		cutoff := math.Inf(1)
		if obj == dma.MinDelayRatio && best != nil {
			cutoff = best.Objective
		}
		res, expanded, err := solveAt(a, cm, gamma, obj, gran, cutoff)
		states += expanded
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if best == nil || better(obj, res, best) {
			best = res
		}
		// For MinTransfers the granularity order is already best-first;
		// for NoObjective any feasible solution suffices.
		if obj != dma.MinDelayRatio {
			break
		}
	}
	if best == nil {
		if firstErr == nil {
			firstErr = fmt.Errorf("combopt: no feasible solution")
		}
		return nil, firstErr
	}
	best.DPStates = states
	return best, nil
}

// better reports whether x improves on y under the objective.
func better(obj dma.Objective, x, y *Result) bool {
	switch obj {
	case dma.MinTransfers:
		return x.NumTransfers < y.NumTransfers
	case dma.MinDelayRatio:
		return x.Objective < y.Objective-1e-15
	default:
		return false
	}
}

// solveAt builds and orders a solution at one granularity and validates it.
// cutoff is passed to orderExact: +Inf, or an incumbent objective the
// result is only useful if it beats. It also returns the number of states
// the ordering DP expanded, whether or not it found a solution.
func solveAt(a *let.Analysis, cm dma.CostModel, gamma dma.Deadlines, obj dma.Objective, gran Granularity, cutoff float64) (*Result, int, error) {
	layout, transfers, err := groupAt(a, gran)
	if err != nil {
		return nil, 0, err
	}
	pred := precedences(a, transfers)
	oo := buildOrderObjective(a, transfers, gamma, obj)

	var sched *dma.Schedule
	exact := false
	expanded := 0
	if len(transfers) <= MaxExactOrderDefault {
		order, _, n, ok := orderExact(transferCosts(a, cm, transfers), oo, pred, cutoff)
		expanded = n
		if !ok {
			return nil, expanded, fmt.Errorf("combopt: no order satisfies the deadlines at granularity %s", gran)
		}
		sched = applyOrder(transfers, order)
		exact = true
	} else {
		sched = applyOrder(transfers, orderHeuristic(oo, pred, len(transfers)))
	}

	if err := dma.Validate(a, cm, layout, sched, gamma); err != nil {
		return nil, expanded, fmt.Errorf("combopt: %s solution invalid: %w", gran, err)
	}

	res := &Result{
		Layout:       layout,
		Sched:        sched,
		NumTransfers: len(transfers),
		Granularity:  gran,
		ExactOrder:   exact,
	}
	switch obj {
	case dma.MinDelayRatio:
		res.Objective = dma.MaxLatencyRatio(a, cm, sched, dma.PerTaskReadiness)
	case dma.MinTransfers:
		res.Objective = float64(len(transfers))
	default:
		worst := 0.0
		for _, id := range ordered.Keys(gamma) {
			g := gamma[id]
			lam := float64(dma.Latency(a, cm, sched, 0, id, dma.PerTaskReadiness))
			if g > 0 {
				if r := lam / float64(g); r > worst {
					worst = r
				}
			}
		}
		if math.IsNaN(worst) {
			worst = 0
		}
		res.Objective = worst
	}
	return res, expanded, nil
}

// groupAt builds the layout and the (unordered) transfers of one
// granularity.
func groupAt(a *let.Analysis, gran Granularity) (*dma.Layout, []dma.Transfer, error) {
	switch gran {
	case GranMerged, GranBundled:
		bundles := extractBundles(a)
		if gran == GranMerged {
			bundles = mergeChains(bundles)
		}
		layout, err := buildLayout(a, bundles)
		if err != nil {
			return nil, nil, err
		}
		return layout, buildTransfers(bundles), nil
	case GranPerComm:
		return dma.TrivialLayout(a), perCommTransfers(a), nil
	default:
		return nil, nil, fmt.Errorf("combopt: unknown granularity %q", gran)
	}
}
