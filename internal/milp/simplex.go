package milp

import (
	"math"
	"time"
)

// Tolerances and cadence constants of the numerical kernel.
const (
	feasTol  = 1e-7 // primal feasibility
	optTol   = 1e-7 // reduced-cost optimality
	pivotTol = 1e-9 // minimum acceptable pivot magnitude
	refactor = 120  // pivots between basis refactorizations
	blandAt  = 5000 // iterations before switching to Bland's rule
	maxIters = 200000
	// deadlinePollEvery is the shared iteration cadence at which the primal
	// loop and the dual-simplex warm solve poll the wall-clock deadline. One
	// constant for both paths: polling affects only where a TimeLimit cuts
	// the search, never the result of an unlimited solve.
	deadlinePollEvery = 64
	// devexReset re-initializes the devex reference framework when a
	// reference weight has grown past it; the weights are approximations
	// and huge values mean the frame is stale.
	devexReset = 1e7
)

// lpStatus is the outcome of one LP solve.
type lpStatus int

const (
	lpOptimal lpStatus = iota
	lpInfeasible
	lpUnbounded
	lpIterLimit
	lpTimeLimit
	// lpCutoff: the warm dual-simplex solve proved the node's relaxation
	// bound exceeds the incumbent cutoff, so the node is fathomed without a
	// full solve. By weak duality a full solve would have been pruned too.
	lpCutoff
	// lpNumerical: the kernel produced a verdict that is impossible in
	// exact arithmetic — currently only phase 1 claiming unboundedness,
	// although its objective is bounded below by zero. The node's
	// relaxation is undecided; the search must not claim infeasibility or
	// optimality from it.
	lpNumerical
)

// sparseCol is one column of the constraint matrix in sparse form.
type sparseCol struct {
	rows []int
	vals []float64
}

// lpProblem is the computational form: min c'x s.t. Ax = b, lo <= x <= hi,
// where columns 0..nStruct-1 are the model variables, then one slack per
// inequality row, then one artificial per row (phase 1 only).
type lpProblem struct {
	m       int // rows
	n       int // structural + slack columns (artificials live in [n, n+m))
	nStruct int
	cols    []sparseCol // length n + m (artificials appended)
	b       []float64
	c       []float64 // phase-2 costs, length n+m (zero on artificials)
	lo, hi  []float64 // length n+m
}

// nonbasic variable states.
const (
	stBasic int8 = iota
	stLower
	stUpper
	stFree // nonbasic free variable, held at 0
)

// lpSolution is the result of an LP solve.
type lpSolution struct {
	status lpStatus
	x      []float64 // structural variable values (length nStruct)
	obj    float64
	iters  int
	// phase1Iters is the portion of iters spent in phase 1 (cold path only).
	phase1Iters int
	// counters holds the linear-algebra activity of the solve.
	counters kernelCounters
	// basis is the final simplex basis (set on lpOptimal), handed to child
	// nodes as the dual-simplex warm start.
	basis *Basis
}

// buildLP converts a model plus (possibly tightened) bounds into
// computational form. The caller guarantees len(lo) == len(hi) ==
// len(m.Vars).
func buildLP(m *Model, lo, hi []float64) *lpProblem {
	nStruct := len(m.Vars)
	rows := len(m.Cons)
	p := &lpProblem{m: rows, nStruct: nStruct}

	// Structural columns.
	p.cols = make([]sparseCol, nStruct, nStruct+2*rows)
	for i, con := range m.Cons {
		for _, t := range con.Terms {
			p.cols[t.Var].rows = append(p.cols[t.Var].rows, i)
			p.cols[t.Var].vals = append(p.cols[t.Var].vals, t.Coef)
		}
	}
	p.lo = append(p.lo, lo...)
	p.hi = append(p.hi, hi...)

	// Slack columns: LE -> s in [0, inf); GE -> s in (-inf, 0]; EQ -> s = 0.
	p.b = make([]float64, rows)
	for i, con := range m.Cons {
		p.b[i] = con.RHS
		col := sparseCol{rows: []int{i}, vals: []float64{1}}
		p.cols = append(p.cols, col)
		switch con.Sense {
		case LE:
			p.lo = append(p.lo, 0)
			p.hi = append(p.hi, Inf)
		case GE:
			p.lo = append(p.lo, math.Inf(-1))
			p.hi = append(p.hi, 0)
		default:
			p.lo = append(p.lo, 0)
			p.hi = append(p.hi, 0)
		}
	}
	p.n = len(p.cols)

	// Phase-2 costs (minimization is handled by the caller).
	p.c = make([]float64, p.n+rows)
	for _, t := range m.Obj.Terms {
		p.c[t.Var] += t.Coef
	}
	return p
}

// simplexState carries the working state of the revised simplex.
type simplexState struct {
	p     *lpProblem
	rep   *basisRep // sparse LU + eta-file basis representation
	basis []int     // basic variable per row
	state []int8    // per column
	xval  []float64 // current value per column (basic and nonbasic)
	ncols int       // total columns including artificials
	// rowwise is the row-major view of the full column set (artificials
	// included), used to gather B⁻¹-rows (pivot rows) sparsely.
	rowwise [][]luEntry
	// counters accumulates the solve's linear-algebra activity.
	counters kernelCounters
	// devex pricing state: reference-framework weights per column plus the
	// partial-pricing section cursor.
	dwt         []float64
	priceCursor int
	// pivot-row scatter scratch: alpha accumulator, epoch marks and the
	// touched-column list.
	alpha    []float64
	amark    []int32
	aepoch   int32
	atouched []int32
	// certLo/certHi cache the certificate box (see certBox in warm.go).
	certLo, certHi []float64
	// pcost, when non-nil, replaces p.c for dual-simplex pricing in warm
	// solves: costs with a tiny deterministic perturbation that breaks dual
	// degeneracy (see newWarmState). Certificates always evaluate the true
	// p.c.
	pcost []float64
}

// newSimplexState allocates the working state for a problem whose
// artificial columns have already been appended to p.cols.
func newSimplexState(p *lpProblem) *simplexState {
	s := &simplexState{p: p, ncols: p.n + p.m}
	s.state = make([]int8, s.ncols)
	s.xval = make([]float64, s.ncols)
	s.basis = make([]int, p.m)
	s.rep = newBasisRep(p.m, &s.counters)
	s.dwt = make([]float64, s.ncols)
	s.alpha = make([]float64, s.ncols)
	s.amark = make([]int32, s.ncols)
	s.atouched = make([]int32, 0, 64)
	return s
}

// buildRowwise constructs the row-major matrix view. It must be called
// after the artificial columns are in place.
func (s *simplexState) buildRowwise() {
	p := s.p
	s.rowwise = make([][]luEntry, p.m)
	for j := 0; j < s.ncols; j++ {
		for k, row := range p.cols[j].rows {
			s.rowwise[row] = append(s.rowwise[row], luEntry{int32(j), p.cols[j].vals[k]})
		}
	}
}

// solveLP runs the two-phase bounded simplex. deadline may be the zero time
// for no limit.
func solveLP(m *Model, lo, hi []float64, deadline time.Time) lpSolution {
	p := buildLP(m, lo, hi)

	// Quick bound sanity: lo > hi means infeasible.
	for j := 0; j < p.n; j++ {
		if p.lo[j] > p.hi[j]+feasTol {
			return lpSolution{status: lpInfeasible}
		}
	}

	s := newColdState(p)

	totalIters := 0

	// Phase 1.
	st, it := s.phase1(phase1CostVec(s), deadline)
	totalIters += it
	phase1Iters := it
	done := func(status lpStatus) lpSolution {
		return lpSolution{status: status, iters: totalIters, phase1Iters: phase1Iters, counters: s.counters}
	}
	if st != lpOptimal {
		return done(st)
	}
	// Drive basic artificials out of the basis where possible, then pin all
	// artificials to zero for phase 2.
	s.driveOutArtificials()
	for j := p.n; j < s.ncols; j++ {
		p.lo[j], p.hi[j] = 0, 0
		if s.state[j] != stBasic {
			s.state[j] = stLower
			s.xval[j] = 0
		}
	}

	// Phase 2.
	st, it = s.iterate(p.c, deadline)
	totalIters += it
	if st == lpTimeLimit || st == lpIterLimit || st == lpUnbounded {
		return done(st)
	}

	// Final cleanup solve: recompute the basic values from a fresh
	// factorization so the reported vertex carries one FTRAN's rounding
	// error instead of the drift accumulated across the eta-file updates.
	if err := s.refactorize(); err != nil {
		return done(lpNumerical)
	}

	x := make([]float64, p.nStruct)
	copy(x, s.xval[:p.nStruct])
	obj := 0.0
	for j := 0; j < p.n; j++ {
		obj += p.c[j] * s.xval[j]
	}
	sol := done(lpOptimal)
	sol.x = x
	sol.obj = obj
	sol.basis = s.snapshotBasis()
	return sol
}

// newColdState builds the cold-start simplex state for a freshly built
// problem: nonbasic structural/slack columns at their nearest finite bound,
// one artificial per row covering the residual, identity-like LU basis.
func newColdState(p *lpProblem) *simplexState {
	s := newSimplexState(p)

	// Nonbasic starting point: finite lower bound, else finite upper bound,
	// else 0 (free).
	for j := 0; j < p.n; j++ {
		switch {
		case !math.IsInf(p.lo[j], -1):
			s.state[j], s.xval[j] = stLower, p.lo[j]
		case !math.IsInf(p.hi[j], 1):
			s.state[j], s.xval[j] = stUpper, p.hi[j]
		default:
			s.state[j], s.xval[j] = stFree, 0
		}
	}

	// Residual r = b - A*xN determines the artificial columns.
	r := make([]float64, p.m)
	copy(r, p.b)
	for j := 0; j < p.n; j++ {
		if s.xval[j] == 0 {
			continue
		}
		for k, row := range p.cols[j].rows {
			r[row] -= p.cols[j].vals[k] * s.xval[j]
		}
	}
	for i := 0; i < p.m; i++ {
		sign := 1.0
		if r[i] < 0 {
			sign = -1.0
		}
		art := p.n + i
		p.cols = append(p.cols, sparseCol{rows: []int{i}, vals: []float64{sign}})
		p.lo = append(p.lo, 0)
		p.hi = append(p.hi, Inf)
		s.basis[i] = art
		s.state[art] = stBasic
		s.xval[art] = math.Abs(r[i])
	}
	s.buildRowwise()
	// The all-artificial basis is diagonal; factorization cannot fail.
	if err := s.rep.factorize(p.cols, s.basis); err != nil {
		panic("milp: diagonal artificial basis failed to factorize: " + err.Error())
	}
	return s
}

// phase1 runs phase-1 iterations with the given cost vector and maps the
// outcome: lpOptimal means the problem is feasible and the state is ready
// for phase 2. The cost vector is a parameter so tests can inject a
// corrupted one and exercise the lpNumerical guard, which is unreachable
// with the true phase-1 costs in exact arithmetic.
func (s *simplexState) phase1(cost []float64, deadline time.Time) (lpStatus, int) {
	st, it := s.iterate(cost, deadline)
	switch st {
	case lpTimeLimit, lpIterLimit:
		return st, it
	case lpUnbounded:
		// The phase-1 objective (the sum of the artificials) is bounded
		// below by zero, so an unbounded verdict can only mean numerical
		// corruption. Reporting it as infeasible (the historical
		// fallthrough behavior) or optimal would launder a broken solve
		// into a search decision; surface it instead.
		return lpNumerical, it
	}
	var p1 float64
	for i := 0; i < s.p.m; i++ {
		if s.basis[i] >= s.p.n {
			p1 += s.xval[s.basis[i]]
		}
	}
	if p1 > 1e-6 {
		return lpInfeasible, it
	}
	return lpOptimal, it
}

// phase1CostVec returns the phase-1 cost vector (1 on every artificial).
func phase1CostVec(s *simplexState) []float64 {
	cost := make([]float64, s.ncols)
	for j := s.p.n; j < s.ncols; j++ {
		cost[j] = 1
	}
	return cost
}

// isFixed reports whether a variable's bounds pin it to a single value.
// Exact comparison is intended: fixings come from branching, which sets
// lo and hi to the same rounded value.
func isFixed(lo, hi float64) bool {
	return lo == hi
}

// price selects the entering column. Default mode is devex pricing with
// partial (sectioned) scans: sections of the column range are examined in
// rotation starting at the persistent cursor, and the first section
// containing an eligible column yields the entering variable with the best
// devex score d²/w. A full wrap with no eligible column proves optimality.
// In Bland mode the scan degenerates to first-eligible-index over the full
// range, preserving the anti-cycling guarantee.
func (s *simplexState) price(cost, y []float64, bland bool) (enter int, enterDir float64) {
	p := s.p
	enter = -1
	if bland {
		for j := 0; j < s.ncols; j++ {
			if d, dir, ok := s.reducedCost(cost, y, j); ok && d < -optTol {
				return j, dir
			}
		}
		return -1, 0
	}

	section := s.ncols / 8
	if section < 64 {
		section = 64
	}
	var bestScore float64
	for scanned := 0; scanned < s.ncols; {
		lo := s.priceCursor
		hi := lo + section
		if hi > s.ncols {
			hi = s.ncols
		}
		for j := lo; j < hi; j++ {
			d, dir, ok := s.reducedCost(cost, y, j)
			if !ok || d >= -optTol {
				continue
			}
			if score := d * d / s.dwt[j]; enter == -1 || score > bestScore {
				bestScore = score
				enter, enterDir = j, dir
			}
		}
		scanned += hi - lo
		if enter != -1 {
			return enter, enterDir
		}
		s.priceCursor = hi
		if s.priceCursor >= s.ncols {
			s.priceCursor = 0
		}
	}
	_ = p
	return -1, 0
}

// reducedCost computes column j's reduced cost oriented along its
// admissible move direction: the returned d is negative when moving j in
// direction dir improves the objective. ok is false for basic and fixed
// columns.
func (s *simplexState) reducedCost(cost, y []float64, j int) (d, dir float64, ok bool) {
	p := s.p
	stj := s.state[j]
	if stj == stBasic {
		return 0, 0, false
	}
	if isFixed(p.lo[j], p.hi[j]) && stj != stFree {
		return 0, 0, false // fixed variable can never improve
	}
	d = cost[j]
	for k, row := range p.cols[j].rows {
		d -= y[row] * p.cols[j].vals[k]
	}
	switch stj {
	case stLower:
		return d, 1, true
	case stUpper:
		return -d, -1, true
	default: // stFree
		if d < 0 {
			return d, 1, true
		}
		return -d, -1, true
	}
}

// pivotRowAlpha gathers row r of B⁻¹A into the dense alpha accumulator via
// one BTRAN and the row-major matrix view, returning the touched column
// list. Validity of alpha[j] is indicated by amark[j] == aepoch; untouched
// columns are exactly zero. rho must be a zeroed length-m scratch; it holds
// B⁻ᵀe_r (the B⁻¹-row) on return.
func (s *simplexState) pivotRowAlpha(r int, rho []float64) []int32 {
	rho[r] = 1
	s.rep.btran(rho)
	s.aepoch++
	s.atouched = s.atouched[:0]
	for i := 0; i < s.p.m; i++ {
		ri := rho[i]
		if ri == 0 {
			continue
		}
		for _, e := range s.rowwise[i] {
			if s.amark[e.idx] != s.aepoch {
				s.amark[e.idx] = s.aepoch
				s.alpha[e.idx] = 0
				s.atouched = append(s.atouched, e.idx)
			}
			s.alpha[e.idx] += ri * e.val
		}
	}
	return s.atouched
}

// updateDevex applies the reference-framework weight update for a pivot
// with entering column enter leaving at row position r. It gathers the
// pivot row sparsely (one extra BTRAN); the weights are heuristic, so the
// formulas only need determinism, not exactness.
func (s *simplexState) updateDevex(r, enter, leaving int, rho []float64) {
	touched := s.pivotRowAlpha(r, rho)
	aq := s.alpha[enter]
	if aq == 0 {
		return // cancellation killed the pivot entry; keep weights as-is
	}
	wq := s.dwt[enter]
	if wq > devexReset {
		for j := range s.dwt {
			s.dwt[j] = 1
		}
		return
	}
	inv2 := 1 / (aq * aq)
	for _, j := range touched {
		if int(j) == enter || s.state[j] == stBasic {
			continue
		}
		if cand := s.alpha[j] * s.alpha[j] * inv2 * wq; cand > s.dwt[j] {
			s.dwt[j] = cand
		}
	}
	if wl := wq * inv2; wl > 1 {
		s.dwt[leaving] = wl
	} else {
		s.dwt[leaving] = 1
	}
}

// iterate runs primal simplex iterations with the given cost vector until
// optimality, unboundedness, or a limit. Pricing is devex with partial
// scans (Bland's rule after blandAt iterations); directions come from
// sparse FTRANs and dual values from sparse BTRANs against the LU + eta
// basis representation.
func (s *simplexState) iterate(cost []float64, deadline time.Time) (lpStatus, int) {
	p := s.p
	y := make([]float64, p.m)
	w := make([]float64, p.m)
	rho := make([]float64, p.m)
	iters := 0
	sinceRefactor := 0
	// Fresh pricing frame per phase: all weights 1, cursor at the start.
	for j := range s.dwt {
		s.dwt[j] = 1
	}
	s.priceCursor = 0

	for ; iters < maxIters; iters++ {
		if !deadline.IsZero() && iters%deadlinePollEvery == 0 && time.Now().After(deadline) {
			return lpTimeLimit, iters
		}
		bland := iters >= blandAt

		// Dual values y = B⁻ᵀ c_B.
		for i := 0; i < p.m; i++ {
			y[i] = cost[s.basis[i]]
		}
		s.rep.btran(y)

		enter, enterDir := s.price(cost, y, bland)
		if enter == -1 {
			return lpOptimal, iters
		}

		// Direction w = B⁻¹ A_enter.
		for i := range w {
			w[i] = 0
		}
		for k, row := range p.cols[enter].rows {
			w[row] = p.cols[enter].vals[k]
		}
		s.rep.ftran(w)

		// Ratio test. The entering variable moves by delta >= 0 in
		// direction enterDir; basic variable i changes by -enterDir*w[i]*delta.
		delta := math.Inf(1)
		if !math.IsInf(p.lo[enter], -1) && !math.IsInf(p.hi[enter], 1) {
			delta = p.hi[enter] - p.lo[enter]
		}
		leave := -1 // row index of leaving variable; -1 = bound flip
		leaveAt := int8(stLower)
		for i := 0; i < p.m; i++ {
			if w[i] == 0 {
				continue
			}
			step := -enterDir * w[i]
			if math.Abs(step) < pivotTol {
				continue
			}
			bv := s.basis[i]
			var lim float64
			var hitState int8
			if step < 0 { // basic value decreases toward its lower bound
				if math.IsInf(p.lo[bv], -1) {
					continue
				}
				lim = (s.xval[bv] - p.lo[bv]) / -step
				hitState = stLower
			} else { // increases toward its upper bound
				if math.IsInf(p.hi[bv], 1) {
					continue
				}
				lim = (p.hi[bv] - s.xval[bv]) / step
				hitState = stUpper
			}
			if lim < -1e-12 {
				lim = 0
			}
			if lim < delta-1e-12 || (lim < delta+1e-12 && leave != -1 && bland && bv < s.basis[leave]) {
				delta = lim
				leave = i
				leaveAt = hitState
			}
		}
		if math.IsInf(delta, 1) {
			return lpUnbounded, iters
		}

		// Apply the step.
		if delta != 0 {
			for i := 0; i < p.m; i++ {
				if w[i] == 0 {
					continue
				}
				bv := s.basis[i]
				s.xval[bv] += -enterDir * w[i] * delta
			}
		}
		s.xval[enter] += enterDir * delta

		if leave == -1 {
			// Bound flip: entering variable moved to its opposite bound.
			if enterDir > 0 {
				s.state[enter] = stUpper
			} else {
				s.state[enter] = stLower
			}
			continue
		}

		// Pivot: basis change.
		bv := s.basis[leave]
		s.state[bv] = leaveAt
		if leaveAt == stLower {
			s.xval[bv] = p.lo[bv]
		} else {
			s.xval[bv] = p.hi[bv]
		}
		s.basis[leave] = enter
		s.state[enter] = stBasic

		if math.Abs(w[leave]) < pivotTol {
			// Numerically unsafe pivot: refactorize the (already updated)
			// basis instead of appending an eta with a tiny pivot.
			if err := s.refactorize(); err != nil {
				return lpInfeasible, iters
			}
			continue
		}
		if !bland {
			// Devex weights for the next pricing round, gathered from the
			// pre-update basis representation.
			for i := range rho {
				rho[i] = 0
			}
			s.updateDevex(leave, enter, bv, rho)
		}
		s.rep.update(leave, w)

		sinceRefactor++
		if sinceRefactor >= refactor {
			sinceRefactor = 0
			if err := s.refactorize(); err != nil {
				return lpInfeasible, iters
			}
		}
	}
	return lpIterLimit, iters
}

// driveOutArtificials pivots zero-valued basic artificial columns out of
// the basis after a successful phase 1, so that the snapshot handed to
// child-node warm solves (and the phase-2 start) is artificial-free
// whenever the matrix allows it. For each basic artificial, the B⁻¹A pivot
// row is gathered sparsely; the first nonbasic non-artificial column with
// an acceptable pivot magnitude replaces it in a degenerate (zero-step)
// pivot. Rows whose pivot row has no such column are linearly dependent on
// the others; their artificial stays basic, pinned to zero — the only
// remaining representation of the redundant row.
func (s *simplexState) driveOutArtificials() {
	p := s.p
	w := make([]float64, p.m)
	rho := make([]float64, p.m)
	drove := false
	for i := 0; i < p.m; i++ {
		if s.basis[i] < p.n {
			continue
		}
		for k := range rho {
			rho[k] = 0
		}
		s.pivotRowAlpha(i, rho)
		enter := -1
		for j := 0; j < p.n; j++ {
			if s.state[j] == stBasic || s.amark[j] != s.aepoch {
				continue
			}
			if math.Abs(s.alpha[j]) < 1e-7 {
				// Stricter than pivotTol: a sloppy pivot here buys nothing
				// (the pivot is degenerate), so only well-conditioned
				// replacements are worth it.
				continue
			}
			enter = j
			break
		}
		if enter == -1 {
			continue
		}
		for k := range w {
			w[k] = 0
		}
		for k, row := range p.cols[enter].rows {
			w[row] = p.cols[enter].vals[k]
		}
		s.rep.ftran(w)
		if math.Abs(w[i]) < pivotTol {
			continue // FTRAN disagrees with the gathered row; skip
		}
		// Degenerate pivot: the artificial leaves at value zero, the
		// entering column keeps its current nonbasic value, every basic
		// value is unchanged.
		art := s.basis[i]
		s.xval[art] = 0
		s.state[art] = stLower
		s.basis[i] = enter
		s.state[enter] = stBasic
		s.rep.update(i, w)
		drove = true
	}
	if drove {
		// Rebuild the factors and recompute the basic values: the departed
		// artificials carried up to 1e-6 of phase-1 residual, which the
		// refactorization folds back into the basic solution.
		if err := s.refactorize(); err == nil {
			return
		}
		// A singular rebuild here would be a contradiction (every pivot was
		// checked); keep the eta-file representation if it somehow happens.
	}
}

// refactorize rebuilds the LU factors from the current basis and recomputes
// the basic variable values x_B = B⁻¹(b - N x_N).
func (s *simplexState) refactorize() error {
	p := s.p
	if err := s.rep.factorize(p.cols, s.basis); err != nil {
		return err
	}
	rhs := make([]float64, p.m)
	copy(rhs, p.b)
	for j := 0; j < s.ncols; j++ {
		if s.state[j] == stBasic || s.xval[j] == 0 {
			continue
		}
		for k, row := range p.cols[j].rows {
			rhs[row] -= p.cols[j].vals[k] * s.xval[j]
		}
	}
	s.rep.ftran(rhs)
	for i := 0; i < p.m; i++ {
		s.xval[s.basis[i]] = rhs[i]
	}
	return nil
}
