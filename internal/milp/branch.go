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
	// StatusFeasible: the search stopped early (interrupt, numerical
	// retreat, time or nodes) with an incumbent integer solution.
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
// infeasible, unbounded) it is StopNone.
type StopCause int

const (
	// StopNone: the search ran to a decision without stopping early.
	StopNone StopCause = iota
	// StopInterrupt: Params.Interrupt was closed (anytime stop).
	StopInterrupt
	// StopNumerical: the LP kernel lost its numerical footing on an open
	// node (lpNumerical) and the search stopped there. Transient in the
	// sense that a re-solve — possibly on the other engine or with
	// different budgets — may well decide it; the letdmad retry policy
	// treats exactly this cause as retryable. FastSearch keeps the node
	// open, so its reported bound still accounts for it; the depth-first
	// engine drops it, so its bound, gap and status can overstate what was
	// proved (see the undecided-LP case in Solve).
	StopNumerical
	// StopLimit: a resource budget expired (TimeLimit, MaxNodes, or the
	// kernel's per-LP iteration budget).
	StopLimit
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

const (
	// intTol is the integrality tolerance of the branching-variable choice.
	intTol = 1e-6
	// warmIterLimit bounds the dual-simplex pivots per warm solve before it
	// falls back to the cold path.
	warmIterLimit = 300
)

// Params controls the branch-and-bound search.
type Params struct {
	// TimeLimit bounds the wall-clock solve time; 0 means unlimited.
	TimeLimit time.Duration
	// MaxNodes bounds the number of explored nodes; 0 means unlimited.
	MaxNodes int
	// Workers is the FastSearch worker count (minimum 1); the
	// deterministic depth-first engine ignores it.
	Workers int
	// FastSearch selects the work-stealing engine (fast.go) instead of the
	// deterministic depth-first search: per-worker deques with
	// best-bound-biased stealing and a lock-free incumbent published by
	// monotonic compare-and-swap. The returned optimum and status are
	// exact, but the trajectory — node order, Nodes, SimplexIters, Kernel
	// counters, and WHICH of several tied optimal solutions is returned —
	// depends on goroutine scheduling and is NOT reproducible across runs
	// or worker counts. The depth-first engine replays; FastSearch
	// certifies: callers that need an audited result gate it through
	// verify.CheckOptimal.
	FastSearch bool
	// WarmStart, if non-nil, is checked for feasibility and installed as
	// the initial incumbent.
	WarmStart []float64
	// DisableWarmStart selects the cold path: every node is solved by the
	// two-phase simplex from the all-artificial basis instead of warm from
	// its parent's basis. Warm and cold solves agree on status and optimum
	// but follow different trajectories (a warm solve may land on a
	// different optimal vertex). verify.CheckOptimal uses the cold path as
	// its reference oracle, so that its certificate never shares the warm
	// LP path with the FastSearch result it checks.
	DisableWarmStart bool
	// BranchPriority, if non-nil, gives per-variable branching priorities
	// (higher = branch earlier). Among fractional integer variables, the
	// highest priority tier is branched first; ties break on fractionality.
	BranchPriority []int
	// Log, if non-nil, receives progress lines.
	Log io.Writer
	// Interrupt, when non-nil, requests a cooperative stop: close the
	// channel and the search halts at the next node boundary (in
	// FastSearch, every worker polls it at its own), returning the
	// incumbent anytime solution (StatusFeasible plus its gap) exactly as
	// if the time limit had expired. It is polled before the budgets, so a
	// closed channel reports StopInterrupt even when a limit expired in
	// the same instant. letdma wires SIGINT to this.
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
	// StopCause refines an early stop: interrupt vs numerical retreat vs
	// budget limit. StopNone for decided solves.
	StopCause StopCause
}

type bbNode struct {
	lo, hi []float64
	bound  float64 // parent LP relaxation objective (min sense)
	depth  int
	pbasis *basisSnapshot // parent's optimal basis (nil: solve cold)
}

// searchState is the search context shared by the depth-first and the
// FastSearch engines: the LP template of the minimization form, the root
// bounds after presolve, the integer variable set, bound-rounding data and
// the incumbent. atLimit, fathomed, solveNode and expand are the per-node
// steps both engines run; what stays per engine is the open-node
// container, the node-solve workspace (one for the depth-first engine, one
// per FastSearch worker), incumbent publication and the handling of an
// undecided LP.
type searchState struct {
	m         *Model
	tpl       *lpTemplate // computational form of the minimization model
	p         Params
	start     time.Time
	deadline  time.Time
	objSign   float64
	lo0, hi0  []float64
	intVars   []VarID
	intObjGCD float64
	objOffset float64
	incumbent []float64
	incObj    float64 // minimization objective of incumbent
	warm      bool    // warm solves from the parent basis enabled
	// stopCause is atomic because FastSearch workers write it
	// concurrently; the depth-first engine pays one uncontended store per
	// (rare) event. It holds the FIRST recorded StopCause (0 = none).
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

	// The LP template of the minimization form, built once: every node
	// solve, on every FastSearch worker, reads it and brings only its own
	// bounds.
	minM := m
	if m.ObjSense == Maximize {
		neg := *m
		neg.Obj = Expr{}
		for _, t := range m.Obj.Terms {
			neg.Obj.Terms = append(neg.Obj.Terms, Term{Var: t.Var, Coef: -t.Coef})
		}
		minM = &neg
	}
	st.tpl = newTemplate(minM)
	st.warm = !p.DisableWarmStart

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
	worstFrac := intTol
	bestPrio := math.MinInt
	for _, id := range st.intVars {
		f := math.Abs(x[id] - math.Round(x[id]))
		if f <= intTol {
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

// atLimit reports whether the search must stop at this node boundary,
// having expanded nodes so far, and records the cause. The interrupt is
// polled first so a closed channel reports StopInterrupt even when a budget
// expired in the same instant — the anytime contract the letdmad deadline
// and the SIGINT/SIGTERM paths rely on.
func (st *searchState) atLimit(nodes int) bool {
	switch {
	case stopRequested(st.p.Interrupt):
		st.noteStop(StopInterrupt)
	case st.p.MaxNodes > 0 && nodes >= st.p.MaxNodes,
		!st.deadline.IsZero() && time.Now().After(st.deadline):
		st.noteStop(StopLimit)
	default:
		return false
	}
	return true
}

// fathomed reports whether the node's inherited bound already rules it out
// against cutoff (the incumbent's minimization objective). The root's -Inf
// bound never prunes.
func fathomed(node *bbNode, cutoff float64) bool {
	return node.bound > cutoff-1e-9 && !math.IsInf(node.bound, -1)
}

// expansion is what an LP-optimal node yields: nothing (fathomed, or an
// integral point that fails the feasibility check), a feasible integral
// candidate, or two children.
type expansion struct {
	bound   float64   // rounded relaxation bound (minimization sense)
	cand    []float64 // snapped feasible integral point, when non-nil
	candObj float64   // minimization objective of cand
	// later and first are the children; first holds the LP value's nearer
	// integer and is explored first (pushed last on a LIFO queue).
	later, first *bbNode
}

// expand runs the engine-independent steps after an LP-optimal node solve:
// bound rounding against cutoff, the branching-variable choice, and either
// the snap-and-check of an integral point or the construction of the two
// children, which inherit the rounded bound and this node's basis.
func (st *searchState) expand(node *bbNode, res lpSolution, cutoff float64) expansion {
	var ex expansion
	ex.bound = res.obj
	if ex.bound > cutoff-1e-9 {
		return ex // cannot improve
	}
	// Round the bound up to the next representable objective value when
	// all objective coefficients over integer variables are integral
	// multiples of a step.
	if st.intObjGCD > 0 {
		ex.bound = roundBoundUp(ex.bound, st.intObjGCD, st.objOffset)
		if ex.bound > cutoff-1e-9 {
			return ex
		}
	}
	v := st.pickBranchVar(res.x)
	if v == -1 {
		// Integral: snap the integer variables and verify the point
		// against the original model.
		cand := append([]float64(nil), res.x...)
		for _, id := range st.intVars {
			cand[id] = math.Round(cand[id])
		}
		if st.m.CheckFeasible(cand, 1e-5) == nil {
			ex.cand, ex.candObj = cand, st.minObj(cand)
		}
		return ex
	}
	xf := res.x[v]
	child := func(isUp bool) *bbNode {
		nl := append([]float64(nil), node.lo...)
		nh := append([]float64(nil), node.hi...)
		if isUp {
			nl[v] = math.Ceil(xf)
		} else {
			nh[v] = math.Floor(xf)
		}
		return &bbNode{lo: nl, hi: nh, bound: ex.bound, depth: node.depth + 1, pbasis: res.basis}
	}
	down, up := child(false), child(true)
	if xf-math.Floor(xf) <= 0.5 {
		ex.later, ex.first = up, down
	} else {
		ex.later, ex.first = down, up
	}
	return ex
}

// finish assembles the Solution from the terminal search state. openBound
// is the minimum relaxation bound among still-open nodes (+Inf when the
// search exhausted the tree); k holds the kernel counters of every node
// solve.
func (st *searchState) finish(openBound float64, nodes, iters int, hitLimit bool, k KernelStats) *Solution {
	bestBound := math.Min(openBound, st.incObj)
	sol := &Solution{
		Nodes: nodes, SimplexIters: iters, Runtime: time.Since(st.start),
		Kernel: k,
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
		if !hitLimit || sol.Gap <= 1e-12 {
			sol.Status = StatusOptimal
		} else {
			sol.Status = StatusFeasible
		}
	}
	logf(st.p.Log, "done: status=%s stop=%s obj=%.6g bound=%.6g gap=%.3g nodes=%d iters=%d in %v\n",
		sol.Status, sol.StopCause, sol.Obj, sol.BestBound, sol.Gap, sol.Nodes, sol.SimplexIters, sol.Runtime)
	logf(st.p.Log, "kernel: warm_attempts=%d warm_hits=%d warm_expands=%d cold_solves=%d cold_fallbacks=%d warm_iters=%d phase1_iters=%d refactors=%d\n",
		k.WarmAttempts, k.WarmHits, k.WarmExpands, k.ColdSolves, k.ColdFallbacks,
		k.WarmIters, k.Phase1Iters, k.Refactorizations)
	logf(st.p.Log, "kernel/lu: ftran=%d ftran_nnz=%d btran=%d btran_nnz=%d etas=%d eta_nnz=%d lu_nnz=%d singular=%d\n",
		k.FtranSolves, k.FtranNnz, k.BtranSolves, k.BtranNnz,
		k.EtaUpdates, k.EtaNnz, k.LuNnz, k.SingularRefactors)
	return sol
}

// Solve minimizes or maximizes the model by LP-based branch and bound:
// FastSearch (Params.FastSearch) or the deterministic depth-first search.
func Solve(m *Model, p Params) (*Solution, error) {
	if p.FastSearch {
		return solveFast(m, p)
	}
	return solveDFS(m, p, new(simplexState))
}

// solveDFS is the deterministic depth-first engine. Every node solve runs
// in the one workspace ws, whose counters become the Solution's Kernel.
func solveDFS(m *Model, p Params, ws *simplexState) (*Solution, error) {
	start := time.Now()
	st, early, err := prepSearch(m, p, start)
	if early != nil || err != nil {
		return early, err
	}
	ws.stats = KernelStats{}

	nodes := 0
	simplexIters := 0
	stack := []*bbNode{{lo: st.lo0, hi: st.hi0, bound: math.Inf(-1), depth: 0}}
	hitLimit := false

	openBound := func() float64 {
		// Minimum bound among open nodes.
		b := math.Inf(1)
		for _, n := range stack {
			if n.bound < b {
				b = n.bound
			}
		}
		return b
	}

	for len(stack) > 0 {
		if st.atLimit(nodes) {
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
		if fathomed(node, st.incObj) {
			continue
		}

		res := st.solveNode(ws, node, st.incObj)
		simplexIters += res.iters
		switch res.status {
		case lpTimeLimit, lpIterLimit, lpNumerical:
			// The relaxation is undecided, and the search stops early
			// exactly as at a limit. The node was already popped and is not
			// pushed back, so openBound leaves it out and the reported bound
			// ignores it. With a warm-start incumbent and no other open
			// node, the solve therefore reports gap 0 and StatusOptimal
			// with StopNumerical, although nothing was proved. FastSearch
			// re-queues the node and reports StatusFeasible instead.
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

		ex := st.expand(node, res, st.incObj)
		switch {
		case ex.first != nil:
			stack = append(stack, ex.later, ex.first)
		case ex.cand != nil && ex.candObj < st.incObj-1e-12:
			st.incumbent, st.incObj = ex.cand, ex.candObj
			logf(p.Log, "node %d: new incumbent obj=%.6g\n", nodes, st.objSign*st.incObj)
		}
	}

	ob := math.Inf(1)
	if len(stack) > 0 || hitLimit {
		ob = openBound()
	}
	return st.finish(ob, nodes, simplexIters, hitLimit, ws.stats), nil
}

// solveNode resolves one node's relaxation against the cutoff incObj (the
// minimization objective of the incumbent, +Inf when there is none). With a
// parent basis it runs the warm solve (warmSolveLP); whatever that cannot
// decide, and every node without one, gets the cold two-phase solve from
// the all-artificial basis. An lpOptimal result includes the objective
// constant, so LP bounds and incumbent objectives compare directly. The
// result is a pure function of (model, node bounds, parent basis, incObj) —
// the workspace ws only lends storage and counts into its stats — so
// FastSearch workers may call it concurrently, each with its own workspace
// and their published cutoff; the depth-first engine passes its incumbent.
func (st *searchState) solveNode(ws *simplexState, node *bbNode, incObj float64) lpSolution {
	k := &ws.stats
	warmIters := 0
	if st.warm && node.pbasis != nil {
		k.WarmAttempts++
		res := ws.warmSolveLP(st.tpl, node.lo, node.hi, node.pbasis,
			incObj, st.intObjGCD, st.objOffset, warmIterLimit, st.deadline)
		k.WarmIters += res.iters
		switch res.status {
		case lpCutoff, lpInfeasible:
			k.WarmHits++
			return res
		case lpOptimal:
			k.WarmExpands++
			res.obj += st.objOffset
			return res
		case lpUnbounded, lpTimeLimit:
			return res
		}
		// lpIterLimit, lpNumerical: the warm path could not decide.
		k.ColdFallbacks++
		warmIters = res.iters
	}
	k.ColdSolves++
	res := ws.solveLP(st.tpl, node.lo, node.hi, st.deadline)
	if res.status == lpOptimal {
		res.obj += st.objOffset
	}
	res.iters += warmIters
	return res
}

// relGap computes the relative optimality gap for minimization values,
// following the CPLEX convention |inc - bound| / (1e-10 + |inc|). The
// denominator floors at 1e-10 rather than 1: with max(1, |inc|) every
// sub-unit objective (the OBJ-DEL delay ratios all live in (0, 1]) had its
// gap understated by a factor of 1/|inc|, and negative incumbents close
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
