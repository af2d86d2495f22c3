package verify

import (
	"math"
	"time"

	"letdma/internal/dma"
	"letdma/internal/let"
	"letdma/internal/letopt"
	"letdma/internal/milp"
	"letdma/internal/violation"
)

// OptimalOptions tunes CheckOptimal.
type OptimalOptions struct {
	// Reference is an already-available deterministic-engine result for
	// the same (analysis, gamma, objective, slots) instance — e.g. the one
	// the differential harness just computed. Nil makes CheckOptimal run
	// its own cold deterministic re-solve.
	Reference *letopt.Result
	// TimeLimit bounds the cold re-solve when Reference is nil.
	// Default 30s.
	TimeLimit time.Duration
	// Slots is the transfer-slot count the certified result was solved
	// with; the cold re-solve uses the same formulation. 0 means |C(s0)|.
	Slots int
}

// CheckOptimal certifies a MILP result whose engine does not replay a
// deterministic trajectory — milp.Params.FastSearch, whose node order,
// steal pattern and incumbent publications depend on goroutine
// scheduling. The depth-first engine is audited by replay (golden
// trajectories, run-to-run bit-identity); FastSearch has
// no trajectory to replay, so its contract is certified per result:
//
//  1. the decoded incumbent is replayed against the paper's feasibility
//     conditions (Constraints 1-10 / Properties 1-3) via CheckSolution;
//  2. the self-reported objective must equal the oracle's recomputation
//     from the schedule (Eqs. (4)-(6)) — a solver cannot grade itself;
//  3. a claimed StatusOptimal must come with a closed gap; and
//  4. the claimed status and optimum are cross-checked against an
//     independent deterministic-engine solve of the same instance, on the
//     cold LP path (see referenceSolve).
//
// An undecided side (either engine stopping on a limit) proves nothing
// and skips the cross-check rather than flagging it; the incumbent
// replay above is then the entire certificate. The returned list is
// empty iff every executed check passed.
func CheckOptimal(a *let.Analysis, cm dma.CostModel, gamma dma.Deadlines, obj dma.Objective, res *letopt.Result, opts OptimalOptions) violation.List {
	var vs violation.List
	if res == nil {
		vs.Addf(violation.Objective, "Differential", "no MILP result to certify")
		return vs
	}

	hasInc := res.Layout != nil && res.Sched != nil
	if (res.Status == milp.StatusOptimal || res.Status == milp.StatusFeasible) && !hasInc {
		vs.Addf(violation.Objective, "Section VI",
			"status %s but no decoded incumbent to replay", res.Status)
	}

	if hasInc {
		vs = append(vs, CheckSolution(a, cm, res.Layout, res.Sched, gamma)...)

		got := achieved(a, cm, obj, res.Sched)
		if math.Abs(got-res.Objective) > 1e-6*(1+math.Abs(got)) {
			vs.Addf(violation.Objective, "Eqs. (4)-(6)",
				"self-reported objective %g, oracle recomputes %g from the schedule",
				res.Objective, got)
		}
	}

	if res.Status == milp.StatusOptimal && res.Gap > 1e-6 {
		vs.Addf(violation.Objective, "Section VI",
			"status optimal with an open gap %g (bound %g vs objective %g)",
			res.Gap, res.BestBound, res.Objective)
	}

	if res.Status != milp.StatusOptimal && res.Status != milp.StatusInfeasible {
		return vs // undecided: the replay above is the entire certificate
	}
	ref := opts.Reference
	if ref == nil {
		r, err := referenceSolve(a, cm, gamma, obj, opts)
		if err != nil {
			vs.Addf(violation.Objective, "Differential", "cold deterministic re-solve failed: %v", err)
			return vs
		}
		ref = r
	}
	if ref.Status != milp.StatusOptimal && ref.Status != milp.StatusInfeasible {
		return vs // the reference engine could not decide within its limit
	}
	if res.Status != ref.Status {
		vs.Addf(violation.Objective, "Differential",
			"certified status %s, deterministic engine proves %s", res.Status, ref.Status)
		return vs
	}
	if res.Status == milp.StatusOptimal && hasInc && ref.Sched != nil {
		// Compare oracle-recomputed values on both sides, never the
		// engines' self-reported numbers.
		want := achieved(a, cm, obj, ref.Sched)
		got := achieved(a, cm, obj, res.Sched)
		if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
			vs.Addf(violation.Objective, "Differential",
				"certified optimum %g, deterministic engine proves %g", got, want)
		}
	}
	return vs
}

// referenceSolve is CheckOptimal's own re-solve: the sequential
// deterministic engine on the cold two-phase path (DisableWarmStart), so the
// certificate's LP answers never come from warmSolveLP, the path that
// produced the FastSearch result under audit.
func referenceSolve(a *let.Analysis, cm dma.CostModel, gamma dma.Deadlines, obj dma.Objective, opts OptimalOptions) (*letopt.Result, error) {
	tl := opts.TimeLimit
	if tl == 0 {
		tl = 30 * time.Second
	}
	return letopt.Solve(a, cm, gamma, obj, letopt.Options{
		Slots: opts.Slots,
		MILP:  milp.Params{TimeLimit: tl, DisableWarmStart: true},
	})
}
