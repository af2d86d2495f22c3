package milp

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// Status is the outcome of a Solve call.
type Status int

const (
	// StatusOptimal: an optimal integer solution was found and proven.
	StatusOptimal Status = iota
	// StatusFeasible: the search stopped early (time, nodes or gap) with
	// an incumbent integer solution.
	StatusFeasible
	// StatusInfeasible: the model has no integer solution.
	StatusInfeasible
	// StatusUnbounded: the relaxation is unbounded.
	StatusUnbounded
	// StatusNoSolution: the search stopped early before finding any
	// integer solution.
	StatusNoSolution
)

// String names the status.
func (s Status) String() string {
	switch s {
	case StatusOptimal:
		return "optimal"
	case StatusFeasible:
		return "feasible"
	case StatusInfeasible:
		return "infeasible"
	case StatusUnbounded:
		return "unbounded"
	default:
		return "no-solution"
	}
}

// StopCause records why an early-stopped search stopped. It refines the
// limit statuses (StatusFeasible, StatusNoSolution): callers that must
// react differently to a cooperative interrupt (a service job deadline, a
// SIGINT/SIGTERM) than to a numerical retreat or an exhausted budget read
// it instead of guessing from the status. For decided solves (optimal,
// infeasible, unbounded) it is StopNone; a GapTol-terminated solve, which
// still reports StatusOptimal, records StopGap.
type StopCause int

const (
	// StopNone: the search ran to a decision without stopping early.
	StopNone StopCause = iota
	// StopInterrupt: Params.Interrupt was closed (anytime stop).
	StopInterrupt
	// StopNumerical: the LP kernel lost its numerical footing on an open
	// node (lpNumerical) and the search declined to decide the instance.
	// Transient in the sense that a re-solve — possibly on the other
	// engine or with different budgets — may well decide it; the letdmad
	// retry policy treats exactly this cause as retryable.
	StopNumerical
	// StopLimit: a resource budget expired (TimeLimit, MaxNodes, or the
	// kernel's per-LP iteration budget).
	StopLimit
	// StopGap: the relative MIP gap dropped below Params.GapTol.
	StopGap
)

// String names the cause.
func (c StopCause) String() string {
	switch c {
	case StopNone:
		return "none"
	case StopInterrupt:
		return "interrupt"
	case StopNumerical:
		return "numerical"
	case StopLimit:
		return "limit"
	case StopGap:
		return "gap"
	default:
		return "unknown"
	}
}

// stopCauseOfLP maps an undecided LP verdict that stops the search to its
// StopCause: the numerical guard is distinguished from budget exhaustion.
func stopCauseOfLP(s lpStatus) StopCause {
	if s == lpNumerical {
		return StopNumerical
	}
	return StopLimit
}

// Params controls the branch-and-bound search.
type Params struct {
	// TimeLimit bounds the wall-clock solve time; 0 means unlimited.
	TimeLimit time.Duration
	// MaxNodes bounds the number of explored nodes; 0 means unlimited.
	MaxNodes int
	// GapTol terminates when the relative MIP gap (see relGap) drops below
	// it; 0 requires proof of optimality.
	GapTol float64
	// IntTol is the integrality tolerance (default 1e-6).
	IntTol float64
	// Workers selects the search engine. 0 (the default) runs the
	// sequential depth-first search. n >= 1 runs the epoch-synchronized
	// search with n concurrent LP workers; its whole trajectory —
	// incumbent, bound, decoded solution, node and simplex-iteration
	// counts — is identical for every n, because nodes are dispatched in
	// best-bound order in fixed-size epochs and merged in dispatch order
	// (see parallel.go). Both engines solve nodes warm from the parent
	// basis and replay bit-identically run to run.
	Workers int
	// FastSearch selects the work-stealing engine (fast.go) instead:
	// per-worker deques with best-bound-biased stealing, a lock-free
	// incumbent published by monotonic compare-and-swap, and no epoch
	// barrier. Workers sets the worker count (minimum 1). The returned
	// optimum and status are exact, but the trajectory — node order, Nodes,
	// SimplexIters, Kernel counters, and WHICH of several tied optimal
	// solutions is returned — depends on goroutine scheduling and is NOT
	// reproducible across runs or worker counts. Deterministic engines
	// replay; FastSearch certifies: callers that need an audited result
	// gate it through verify.CheckOptimal.
	FastSearch bool
	// WarmStart, if non-nil, is checked for feasibility and installed as
	// the initial incumbent.
	WarmStart []float64
	// WarmBasis, if non-nil, seeds the root node's dual-simplex warm solve
	// with a known basis — typically Solution.RootBasis from a previous
	// solve of the same model shape. It is validated against the model; an
	// invalid basis makes Solve return an error.
	WarmBasis *Basis
	// DisableWarmStart selects the cold path: every node is solved by the
	// two-phase simplex from the slack basis instead of warm from its
	// parent's basis. Warm and cold solves agree on status and optimum but
	// follow different trajectories (a warm solve may land on a different
	// optimal vertex). verify.CheckOptimal uses the cold path as its
	// reference oracle, so that its certificate never shares the warm LP
	// path with the FastSearch result it checks.
	DisableWarmStart bool
	// WarmIterLimit bounds the dual-simplex pivots per warm solve before it
	// falls back to the cold path; 0 means 300.
	WarmIterLimit int
	// BranchPriority, if non-nil, gives per-variable branching priorities
	// (higher = branch earlier). Among fractional integer variables, the
	// highest priority tier is branched first; ties break on fractionality.
	BranchPriority []int
	// Log, if non-nil, receives progress lines.
	Log io.Writer
	// Interrupt, when non-nil, requests a cooperative stop: close the
	// channel and the search halts at the next node boundary (sequential
	// engine), epoch boundary (parallel engine), or per-worker node
	// boundary (FastSearch, where every worker loop polls it), returning
	// the incumbent anytime solution (StatusFeasible plus its gap) exactly
	// as if the time limit had expired. letdma wires SIGINT to this.
	Interrupt <-chan struct{}
}

// stopRequested polls an interrupt channel without blocking.
func stopRequested(ch <-chan struct{}) bool {
	if ch == nil {
		return false
	}
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// Solution is the result of a Solve call.
type Solution struct {
	Status       Status
	X            []float64 // incumbent values (nil unless a solution exists)
	Obj          float64   // objective of X in the model's own sense
	BestBound    float64   // proven bound in the model's own sense
	Gap          float64   // relative MIP gap at termination
	Nodes        int
	SimplexIters int
	Runtime      time.Duration
	// Kernel aggregates the simplex-kernel counters (warm hits, cold
	// fallbacks, phase-1 iterations, refactorizations) across the solve.
	Kernel KernelStats
	// RootBasis is the final basis of the root relaxation when it reached
	// optimality (nil otherwise); feed it to Params.WarmBasis to warm-start
	// a re-solve of the same model shape.
	RootBasis *Basis
	// StopCause refines an early stop: interrupt vs numerical retreat vs
	// budget limit vs gap tolerance. StopNone for decided solves.
	StopCause StopCause
}

type bbNode struct {
	lo, hi []float64
	bound  float64 // parent LP relaxation objective (min sense)
	depth  int
	seq    int
	pbasis *Basis // parent's optimal basis (nil: solve cold)
}

// searchState is the search context shared by the sequential and the
// epoch-synchronized engines: the minimization form of the model, the root
// bounds after presolve, the integer variable set, bound-rounding data and
// the current incumbent.
type searchState struct {
	m          *Model
	minM       *Model // minimization form of m (== m unless Maximize)
	p          Params
	start      time.Time
	deadline   time.Time
	objSign    float64
	lo0, hi0   []float64
	intVars    []VarID
	intObjGCD  float64
	objOffset  float64
	incumbent  []float64
	incObj     float64 // minimization objective of incumbent
	warm       bool    // warm solves from the parent basis enabled
	warmBudget int     // dual pivot budget per warm solve
	stats      KernelStats
	rootBasis  *Basis
	// stopCause holds the FIRST recorded StopCause (0 = none). Atomic
	// because FastSearch workers note causes concurrently; the sequential
	// and epoch engines pay one uncontended CAS per (rare) stop event.
	stopCause atomic.Int32
}

// noteStop records the first cause that stopped the search; later causes
// are ignored so the report names what actually cut the run short.
func (st *searchState) noteStop(c StopCause) {
	st.stopCause.CompareAndSwap(0, int32(c))
}

// prepSearch normalizes the parameters and builds the shared search state.
// A non-nil Solution means the search is already decided (presolve proved
// infeasibility); a non-nil error means the warm start was rejected.
func prepSearch(m *Model, p Params, start time.Time) (*searchState, *Solution, error) {
	if p.IntTol == 0 {
		p.IntTol = 1e-6
	}
	st := &searchState{m: m, p: p, start: start, objSign: 1.0, incObj: math.Inf(1)}
	if p.TimeLimit > 0 {
		st.deadline = start.Add(p.TimeLimit)
	}
	if m.ObjSense == Maximize {
		st.objSign = -1.0
	}

	st.lo0 = make([]float64, len(m.Vars))
	st.hi0 = make([]float64, len(m.Vars))
	for i, v := range m.Vars {
		st.lo0[i], st.hi0[i] = v.Lo, v.Hi
	}
	if err := presolve(m, st.lo0, st.hi0); err != nil {
		return nil, &Solution{Status: StatusInfeasible, Runtime: time.Since(start), Gap: math.Inf(1)}, nil
	}

	if p.WarmStart != nil {
		if err := m.CheckFeasible(p.WarmStart, 1e-6); err != nil {
			return nil, nil, fmt.Errorf("milp: warm start rejected: %w", err)
		}
		st.incumbent = append([]float64(nil), p.WarmStart...)
		st.incObj = st.minObj(st.incumbent)
		logf(p.Log, "warm start accepted, obj=%.6g\n", st.objSign*st.incObj)
	}
	if p.WarmBasis != nil {
		if err := p.WarmBasis.validate(len(m.Vars), len(m.Cons)); err != nil {
			return nil, nil, fmt.Errorf("milp: warm basis rejected: %w", err)
		}
	}

	// Minimization form, built once: solveLP and the warm solves are pure
	// functions of it, so sharing one copy across nodes (and workers) is
	// safe and keeps the per-node LP bit-identical to the historical
	// per-call negation.
	st.minM = m
	if m.ObjSense == Maximize {
		neg := *m
		neg.Obj = Expr{}
		for _, t := range m.Obj.Terms {
			neg.Obj.Terms = append(neg.Obj.Terms, Term{Var: t.Var, Coef: -t.Coef})
		}
		st.minM = &neg
	}
	st.warm = !p.DisableWarmStart
	st.warmBudget = p.WarmIterLimit
	if st.warmBudget <= 0 {
		st.warmBudget = 300
	}

	for _, v := range m.Vars {
		if v.Type != Continuous {
			st.intVars = append(st.intVars, v.ID)
		}
	}
	st.intObjGCD = objIntegerStep(m, st.objSign)
	st.objOffset = st.objSign * m.Obj.Const
	return st, nil, nil
}

// minObj evaluates x in minimization sense.
func (st *searchState) minObj(x []float64) float64 { return st.objSign * st.m.Obj.Eval(x) }

// pickBranchVar returns the branching variable for the LP point x: highest
// priority tier first, most fractional within the tier; -1 when x is
// integral within tolerance.
func (st *searchState) pickBranchVar(x []float64) VarID {
	branchVar := VarID(-1)
	worstFrac := st.p.IntTol
	bestPrio := math.MinInt
	for _, id := range st.intVars {
		f := math.Abs(x[id] - math.Round(x[id]))
		if f <= st.p.IntTol {
			continue
		}
		prio := 0
		if st.p.BranchPriority != nil {
			prio = st.p.BranchPriority[id]
		}
		if prio > bestPrio || (prio == bestPrio && f > worstFrac) {
			bestPrio = prio
			worstFrac = f
			branchVar = id
		}
	}
	return branchVar
}

// tryIncumbent snaps the integral LP point x, verifies feasibility and
// installs it as the incumbent if it improves. Reports whether it did.
func (st *searchState) tryIncumbent(x []float64) bool {
	cand := append([]float64(nil), x...)
	for _, id := range st.intVars {
		cand[id] = math.Round(cand[id])
	}
	if err := st.m.CheckFeasible(cand, 1e-5); err != nil {
		return false
	}
	obj := st.minObj(cand)
	if obj >= st.incObj-1e-12 {
		return false
	}
	st.incObj = obj
	st.incumbent = cand
	return true
}

// finish assembles the Solution from the terminal search state. openBound
// is the minimum relaxation bound among still-open nodes (+Inf when the
// search exhausted the tree).
func (st *searchState) finish(openBound float64, nodes, iters int, hitLimit bool) *Solution {
	bestBound := math.Min(openBound, st.incObj)
	if settled := st.stats.WarmHits + st.stats.WarmExpands; settled > 0 && st.stats.ColdSolves > 0 {
		st.stats.Phase1ItersSaved = settled * (st.stats.Phase1Iters / st.stats.ColdSolves)
	}
	sol := &Solution{
		Nodes: nodes, SimplexIters: iters, Runtime: time.Since(st.start),
		Kernel: st.stats, RootBasis: st.rootBasis,
	}
	if hitLimit {
		sol.StopCause = StopCause(st.stopCause.Load())
		if sol.StopCause == StopNone {
			// A limit stop with no recorded cause can only be a budget
			// check raced away from its note; report it as the budget.
			sol.StopCause = StopLimit
		}
	}
	switch {
	case st.incumbent == nil && !hitLimit:
		sol.Status = StatusInfeasible
		sol.Gap = math.Inf(1)
	case st.incumbent == nil:
		sol.Status = StatusNoSolution
		sol.Gap = math.Inf(1)
		sol.BestBound = st.objSign * bestBound
	default:
		sol.X = st.incumbent
		sol.Obj = st.objSign * st.incObj
		sol.BestBound = st.objSign * bestBound
		sol.Gap = relGap(st.incObj, bestBound)
		if !hitLimit || sol.Gap <= st.p.GapTol+1e-12 {
			sol.Status = StatusOptimal
		} else {
			sol.Status = StatusFeasible
		}
	}
	logf(st.p.Log, "done: status=%s obj=%.6g bound=%.6g gap=%.3g nodes=%d iters=%d in %v\n",
		sol.Status, sol.Obj, sol.BestBound, sol.Gap, sol.Nodes, sol.SimplexIters, sol.Runtime)
	logf(st.p.Log, "kernel: warm_attempts=%d warm_hits=%d warm_expands=%d cold_solves=%d cold_fallbacks=%d warm_iters=%d phase1_iters=%d phase1_saved=%d refactors=%d\n",
		st.stats.WarmAttempts, st.stats.WarmHits, st.stats.WarmExpands, st.stats.ColdSolves, st.stats.ColdFallbacks,
		st.stats.WarmIters, st.stats.Phase1Iters, st.stats.Phase1ItersSaved, st.stats.Refactorizations)
	logf(st.p.Log, "kernel/lu: ftran=%d ftran_nnz=%d btran=%d btran_nnz=%d etas=%d eta_nnz=%d lu_nnz=%d\n",
		st.stats.FtranSolves, st.stats.FtranNnz, st.stats.BtranSolves, st.stats.BtranNnz,
		st.stats.EtaUpdates, st.stats.EtaNnz, st.stats.LuNnz)
	return sol
}

// Solve minimizes or maximizes the model by LP-based branch and bound.
func Solve(m *Model, p Params) (*Solution, error) {
	if p.FastSearch {
		return solveFast(m, p)
	}
	if p.Workers >= 1 {
		return solveEpochs(m, p)
	}
	start := time.Now()
	st, early, err := prepSearch(m, p, start)
	if early != nil || err != nil {
		return early, err
	}

	nodes := 0
	simplexIters := 0
	seq := 0
	stack := []*bbNode{{lo: st.lo0, hi: st.hi0, bound: math.Inf(-1), depth: 0, seq: seq, pbasis: p.WarmBasis}}
	hitLimit := false

	openBound := func() float64 {
		// Minimum bound among open nodes (and the node being expanded).
		b := math.Inf(1)
		for _, n := range stack {
			if n.bound < b {
				b = n.bound
			}
		}
		return b
	}

	for len(stack) > 0 {
		if p.MaxNodes > 0 && nodes >= p.MaxNodes {
			st.noteStop(StopLimit)
			hitLimit = true
			break
		}
		if !st.deadline.IsZero() && time.Now().After(st.deadline) {
			st.noteStop(StopLimit)
			hitLimit = true
			break
		}
		if stopRequested(p.Interrupt) {
			st.noteStop(StopInterrupt)
			hitLimit = true
			break
		}
		// Depth-first with best-bound tie-break: take the deepest node;
		// among equal depth, smaller parent bound first. The stack is kept
		// so that the last element is the preferred node.
		node := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nodes++

		// Bound-based pruning (works for warm starts too).
		if node.bound > st.incObj-1e-9 && !math.IsInf(node.bound, -1) {
			continue
		}

		nr := st.solveNode(node, st.incObj)
		st.stats.add(nr.stats)
		res := nr.lpSolution
		simplexIters += res.iters
		switch res.status {
		case lpTimeLimit, lpIterLimit, lpNumerical:
			// lpNumerical: the kernel lost its numerical footing on this
			// node; treating the relaxation as decided either way would be
			// unsound, so the node stays open and the search reports an
			// early stop, exactly like a limit.
			st.noteStop(stopCauseOfLP(res.status))
			hitLimit = true
		case lpCutoff, lpInfeasible:
			// lpCutoff: the warm solve fathomed the node against the
			// incumbent; a full solve would have pruned it after solving.
			continue
		case lpUnbounded:
			if len(st.intVars) == 0 || node.depth == 0 {
				return &Solution{
					Status: StatusUnbounded, Nodes: nodes, SimplexIters: simplexIters,
					Runtime: time.Since(start), Gap: math.Inf(1),
				}, nil
			}
			continue
		}
		if hitLimit {
			break
		}
		if node.depth == 0 {
			st.rootBasis = res.basis
		}
		lpObj := res.obj
		if lpObj > st.incObj-1e-9 {
			continue // cannot improve
		}
		// Round the bound up to the next representable objective value
		// when all objective coefficients over integer variables are
		// integral multiples of a step.
		if st.intObjGCD > 0 {
			lpObj = roundBoundUp(lpObj, st.intObjGCD, st.objOffset)
			if lpObj > st.incObj-1e-9 {
				continue
			}
		}

		branchVar := st.pickBranchVar(res.x)
		if branchVar == -1 {
			// Integral: candidate incumbent. Snap and verify.
			if st.tryIncumbent(res.x) {
				logf(p.Log, "node %d: new incumbent obj=%.6g\n", nodes, st.objSign*st.incObj)
				if p.GapTol > 0 {
					ob := math.Min(openBound(), lpObj)
					if relGap(st.incObj, ob) <= p.GapTol {
						st.noteStop(StopGap)
						hitLimit = true
					}
				}
			}
			if hitLimit {
				break
			}
			continue
		}

		// Branch.
		xf := res.x[branchVar]
		downHi := math.Floor(xf)
		upLo := math.Ceil(xf)

		mk := func(newLo, newHi float64, isUp bool) *bbNode {
			nl := append([]float64(nil), node.lo...)
			nh := append([]float64(nil), node.hi...)
			if isUp {
				nl[branchVar] = newLo
			} else {
				nh[branchVar] = newHi
			}
			seq++
			return &bbNode{lo: nl, hi: nh, bound: lpObj, depth: node.depth + 1, seq: seq, pbasis: res.basis}
		}
		down := mk(0, downHi, false)
		up := mk(upLo, 0, true)
		// Explore the child containing the LP value's nearer integer first
		// (pushed last).
		if xf-downHi <= 0.5 {
			stack = append(stack, up, down)
		} else {
			stack = append(stack, down, up)
		}
	}

	ob := math.Inf(1)
	if len(stack) > 0 || hitLimit {
		ob = openBound()
	}
	return st.finish(ob, nodes, simplexIters, hitLimit), nil
}

// coldSolve runs the two-phase simplex from the slack basis on the prebuilt
// minimization form, including the objective constant so that LP bounds and
// incumbent objectives compare directly. It solves the root, every node when
// warm starts are disabled, and every node the warm path hands back.
func (st *searchState) coldSolve(lo, hi []float64) lpSolution {
	res := solveLP(st.minM, lo, hi, st.deadline)
	if res.status == lpOptimal {
		res.obj += st.objOffset
	}
	return res
}

// nodeResult is one node's relaxation outcome plus the kernel counters it
// generated, returned separately so the engines can merge counters in
// dispatch order (keeping them Workers-invariant).
type nodeResult struct {
	lpSolution
	stats KernelStats
}

// solveNode resolves one node's relaxation against the cutoff incObj (the
// minimization objective of the incumbent, +Inf when there is none). With a
// parent basis it runs the warm solve (warmSolveLP), which fathoms the node
// (lpCutoff or lpInfeasible), returns its true-cost LP optimum, or defers to
// the cold path. The result is a pure function of (model, node bounds,
// parent basis, incObj), so every engine may call it concurrently: the
// sequential and epoch engines pass an incumbent they only write between
// nodes or batches, FastSearch its published cutoff.
func (st *searchState) solveNode(node *bbNode, incObj float64) nodeResult {
	var nr nodeResult
	warmIters := 0
	if st.warm && node.pbasis != nil {
		nr.stats.WarmAttempts++
		sol, out := warmSolveLP(st.minM, node.lo, node.hi, node.pbasis,
			incObj, st.intObjGCD, st.objOffset, st.warmBudget, st.deadline)
		nr.stats.WarmIters += sol.iters
		nr.stats.addCounters(sol.counters)
		switch {
		case out == probeCutoff || out == probeInfeasible:
			nr.stats.WarmHits++
			nr.lpSolution = sol
			return nr
		case out == probeOpen:
			// lpOptimal, or lpUnbounded from a primal-feasible basis; both
			// are authoritative.
			if sol.status == lpOptimal {
				nr.stats.WarmExpands++
				sol.obj += st.objOffset
			}
			nr.lpSolution = sol
			return nr
		case sol.status == lpTimeLimit:
			// An expired deadline is final; a cold solve would stop too.
			nr.lpSolution = sol
			return nr
		}
		nr.stats.ColdFallbacks++
		warmIters = sol.iters
	}
	res := st.coldSolve(node.lo, node.hi)
	nr.stats.ColdSolves++
	nr.stats.Phase1Iters += res.phase1Iters
	nr.stats.addCounters(res.counters)
	res.iters += warmIters
	nr.lpSolution = res
	return nr
}

// relGap computes the relative optimality gap for minimization values,
// following the CPLEX convention |inc - bound| / (1e-10 + |inc|). The
// denominator floors at 1e-10 rather than 1: with max(1, |inc|) every
// sub-unit objective (the OBJ-DEL delay ratios all live in (0, 1]) had its
// gap understated by a factor of 1/|inc|, so GapTol early exits fired long
// before the true relative gap was reached, and negative incumbents close
// to zero reported near-zero gaps against much smaller bounds. A bound
// that has met or numerically crossed the incumbent reports gap 0.
func relGap(inc, bound float64) float64 {
	if math.IsInf(inc, 1) || math.IsInf(bound, -1) {
		return math.Inf(1)
	}
	diff := inc - bound
	if diff <= 0 {
		return 0
	}
	return diff / (1e-10 + math.Abs(inc))
}

// objIntegerStep returns a step g > 0 such that every achievable objective
// value is an integer multiple of g, when the objective involves only
// integer variables with integral coefficients (after sign adjustment);
// otherwise 0. This enables stronger bound rounding during the search.
func objIntegerStep(m *Model, objSign float64) float64 {
	if len(m.Obj.Terms) == 0 {
		return 0
	}
	coefs := make([]float64, 0, len(m.Obj.Terms))
	for _, t := range m.Obj.Terms {
		if m.Vars[t.Var].Type == Continuous {
			return 0
		}
		c := math.Abs(t.Coef * objSign)
		if c == 0 {
			continue
		}
		if !isIntegral(c) {
			return 0
		}
		// Above 2^53 float64 integers are not contiguous and the int64
		// conversion below loses (or, past 2^63, implementation-defines)
		// the value, so the gcd could come out too large and roundBoundUp
		// would prune nodes containing the optimum. Forgo rounding instead.
		if c > 1<<53 {
			return 0
		}
		coefs = append(coefs, c)
	}
	if len(coefs) == 0 {
		return 0
	}
	sort.Float64s(coefs)
	g := int64(coefs[0])
	for _, c := range coefs[1:] {
		g = gcd64(g, int64(c))
	}
	if g <= 0 {
		return 0
	}
	return float64(g)
}

// isIntegral reports whether c is an exact integer. The comparison is
// exact on purpose: bound rounding is only sound for coefficients that
// are representable integers, not merely close to one.
func isIntegral(c float64) bool {
	return c == math.Trunc(c)
}

func gcd64(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// roundBoundUp rounds an LP bound up to the next achievable objective value
// offset + k*step.
func roundBoundUp(bound, step, offset float64) float64 {
	k := math.Ceil((bound-offset)/step - 1e-7)
	return offset + k*step
}

func logf(w io.Writer, format string, args ...any) {
	if w != nil {
		fmt.Fprintf(w, format, args...)
	}
}
