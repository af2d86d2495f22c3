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

// lpStatus is the outcome of one LP solve, cold or warm, and of the steps
// inside one (phase1, iterate, dualFathom).
type lpStatus int

const (
	// lpOptimal: an optimal vertex (dualFathom: a primal-feasible basis
	// below the cutoff, ready for the true-cost cleanup).
	lpOptimal lpStatus = iota
	// lpInfeasible: the relaxation provably has no feasible point.
	lpInfeasible
	lpUnbounded
	lpIterLimit // a pivot budget ran out
	lpTimeLimit
	// lpCutoff: the warm dual-simplex solve proved the node's relaxation
	// bound exceeds the incumbent cutoff, so the node is fathomed without a
	// full solve. By weak duality a full solve would have been pruned too.
	lpCutoff
	// lpNumerical: the kernel lost its numerical footing (a singular
	// refactorization, an unsafe pivot, an untrusted certificate, or phase
	// 1 claiming unboundedness although its objective is bounded below by
	// zero). The relaxation is undecided: the search must not claim
	// infeasibility or optimality from it.
	lpNumerical
)

// sparseCol is one column of the constraint matrix in sparse form.
type sparseCol struct {
	rows []int
	vals []float64
}

// lpTemplate is the computational form of one search's minimization model:
// min c'x s.t. Ax = b, lo <= x <= hi, where columns 0..nStruct-1 are the
// model variables, then one slack per row, then one artificial per row.
// Everything in it depends on the model alone, so prepSearch builds it once
// per search and every node solve, on every FastSearch worker, reads it
// without copying or writing. A node solve brings only its variable bounds
// and its artificial signs (see simplexState.reset).
type lpTemplate struct {
	m       int // rows
	n       int // structural + slack columns (artificials live in [n, n+m))
	nStruct int
	cols    []sparseCol // structural then slack columns, length n
	// art[0][i] and art[1][i] are row i's artificial column e_i with sign
	// +1 and -1; a solve points its artificial columns at one of the two.
	art     [2][]sparseCol
	b       []float64
	c       []float64 // phase-2 costs, length n+m (zero on artificials)
	pcost   []float64 // perturbed pricing costs of warm solves, length n+m
	slackLo []float64 // slack bounds: LE [0, inf), GE (-inf, 0], EQ [0, 0]
	slackHi []float64
	// rowwise is the row-major view of the structural and slack columns,
	// used to gather B⁻¹-rows (pivot rows) sparsely. pivotRowAlpha adds
	// each row's artificial term from the solve's sign vector.
	rowwise [][]luEntry
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
	// basis is the final simplex basis (set on lpOptimal), handed to child
	// nodes as the dual-simplex warm start.
	basis *basisSnapshot
}

// newTemplate builds the computational form of a minimization model.
func newTemplate(m *Model) *lpTemplate {
	nStruct := len(m.Vars)
	rows := len(m.Cons)
	p := &lpTemplate{m: rows, n: nStruct + rows, nStruct: nStruct}

	// Structural columns, then one slack column per row.
	p.cols = make([]sparseCol, p.n)
	for i, con := range m.Cons {
		for _, t := range con.Terms {
			p.cols[t.Var].rows = append(p.cols[t.Var].rows, i)
			p.cols[t.Var].vals = append(p.cols[t.Var].vals, t.Coef)
		}
	}
	unitRows := make([]int, rows)
	p.b = make([]float64, rows)
	p.slackLo = make([]float64, rows)
	p.slackHi = make([]float64, rows)
	for i, con := range m.Cons {
		unitRows[i] = i
		p.b[i] = con.RHS
		switch con.Sense {
		case LE:
			p.slackHi[i] = Inf
		case GE:
			p.slackLo[i] = math.Inf(-1)
		}
	}
	one := []float64{1, -1}
	for i := 0; i < rows; i++ {
		p.cols[nStruct+i] = sparseCol{rows: unitRows[i : i+1 : i+1], vals: one[0:1:1]}
	}
	for k := range p.art {
		p.art[k] = make([]sparseCol, rows)
		for i := range p.art[k] {
			p.art[k][i] = sparseCol{rows: unitRows[i : i+1 : i+1], vals: one[k : k+1 : k+1]}
		}
	}

	// Phase-2 costs (minimization is handled by the caller).
	p.c = make([]float64, p.n+rows)
	for _, t := range m.Obj.Terms {
		p.c[t.Var] += t.Coef
	}
	// Warm solves price on deterministically perturbed costs: the LPs here
	// are massively dual-degenerate (many zero reduced costs), and an
	// unperturbed dual simplex cycles through zero-ratio pivots without
	// ever moving the bound. Distinct tiny cost offsets make the dual
	// ratios generically nonzero, so every pivot strictly improves the
	// perturbed dual — the standard anti-degeneracy cure. Soundness is
	// untouched: the fathoming certificates (certLowerBound,
	// certInfeasible) evaluate the TRUE costs for whatever multipliers the
	// perturbed pricing produces, and they are valid for any multiplier
	// vector. The perturbation only makes the certified bound lag by
	// roughly the perturbation mass over the box.
	p.pcost = make([]float64, len(p.c))
	for j := range p.pcost {
		h := uint32(j+1) * 2654435761 // Knuth multiplicative hash, j-dependent
		frac := float64(h>>20) / float64(1<<12)
		p.pcost[j] = p.c[j] + 1e-10*(1+math.Abs(p.c[j]))*(1+frac)
	}

	p.rowwise = make([][]luEntry, rows)
	for j, col := range p.cols {
		for k, row := range col.rows {
			p.rowwise[row] = append(p.rowwise[row], luEntry{int32(j), col.vals[k]})
		}
	}
	return p
}

// simplexState is the working state of the revised simplex and, at the
// same time, the workspace that node solves reuse: one per depth-first
// search, one per FastSearch worker. Every solve starts with reset, which
// leaves it indistinguishable from a freshly allocated state and keeps only
// the capacity of its arrays, so a solve's arithmetic never depends on what
// the workspace solved before.
type simplexState struct {
	p *lpTemplate
	// cols is the solve's full column set: the template's structural and
	// slack columns, then one artificial column per row pointing at the
	// template's shared column of sign artSign[i]. The first p.n entries
	// are copied once per template (colsOf), not per solve.
	cols    []sparseCol
	colsOf  *lpTemplate
	artSign []float64
	lo, hi  []float64 // the solve's bounds, length ncols
	rep     basisRep  // sparse LU + eta-file basis representation
	basis   []int     // basic variable per row
	state   []int8    // per column
	xval    []float64 // current value per column (basic and nonbasic)
	ncols   int       // total columns including artificials
	// stats counts every solve in the workspace (basisRep the linear
	// algebra, solveNode the routing); a search clears it when it starts.
	stats KernelStats
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
	// Dense row-length scratch: duals y, FTRAN direction w, B⁻¹-row rho
	// (iterate, dualFathom, driveOutArtificials) and the refactorization
	// right-hand side rhs, plus the phase-1 cost vector.
	y, w, rho, rhs []float64
	p1cost         []float64
	// certLo/certHi cache the certificate box (see certBox in warm.go)
	// once certOK is set; the fin*/inf* slices are its row scratch.
	certLo, certHi         []float64
	certOK                 bool
	finMin, finMax, finAbs []float64
	infMin, infMax         []int
}

// reset prepares the workspace for one solve on template p with the given
// structural bounds: every per-solve array is sized to p's shape and
// zeroed, the LU factor and eta file are emptied, and the bounds are the
// structural lo/hi, the template's slack bounds and [0, artHi] on the
// artificials.
func (s *simplexState) reset(p *lpTemplate, lo, hi []float64, artHi float64) {
	s.p = p
	s.ncols = p.n + p.m
	if s.colsOf != p {
		s.cols = append(append(s.cols[:0], p.cols...), p.art[0]...)
		s.colsOf = p
	}
	s.artSign = zeroed(s.artSign, p.m)
	s.lo = zeroed(s.lo, s.ncols)
	s.hi = zeroed(s.hi, s.ncols)
	copy(s.lo, lo)
	copy(s.hi, hi)
	copy(s.lo[p.nStruct:], p.slackLo)
	copy(s.hi[p.nStruct:], p.slackHi)
	for j := p.n; j < s.ncols; j++ {
		s.hi[j] = artHi
	}
	s.rep.reset(p.m, &s.stats)
	s.basis = zeroed(s.basis, p.m)
	s.state = zeroed(s.state, s.ncols)
	s.xval = zeroed(s.xval, s.ncols)
	s.dwt = zeroed(s.dwt, s.ncols)
	s.priceCursor = 0
	s.alpha = zeroed(s.alpha, s.ncols)
	s.amark = zeroed(s.amark, s.ncols)
	s.aepoch = 0
	s.atouched = s.atouched[:0]
	s.y = zeroed(s.y, p.m)
	s.w = zeroed(s.w, p.m)
	s.rho = zeroed(s.rho, p.m)
	s.rhs = zeroed(s.rhs, p.m)
	s.p1cost = zeroed(s.p1cost, s.ncols)
	s.certOK = false
}

// setArtificial points row i's artificial column at the template's shared
// unit column of the given sign.
func (s *simplexState) setArtificial(i int, sign float64) {
	s.artSign[i] = sign
	k := 0
	if sign < 0 {
		k = 1
	}
	s.cols[s.p.n+i] = s.p.art[k][i]
}

// zeroed returns v resized to n zero elements, reusing its capacity.
func zeroed[T any](v []T, n int) []T {
	if cap(v) < n {
		return make([]T, n)
	}
	v = v[:n]
	clear(v)
	return v
}

// solveLP runs the two-phase bounded simplex on template p with structural
// bounds lo/hi. deadline may be the zero time for no limit.
func (s *simplexState) solveLP(p *lpTemplate, lo, hi []float64, deadline time.Time) lpSolution {
	// Quick bound sanity: lo > hi means infeasible.
	for j := 0; j < p.nStruct; j++ {
		if lo[j] > hi[j]+feasTol {
			return lpSolution{status: lpInfeasible}
		}
	}

	s.startCold(p, lo, hi)

	// Phase 1.
	st, iters := s.phase1(s.phase1CostVec(), deadline)
	s.stats.Phase1Iters += iters
	if st != lpOptimal {
		return lpSolution{status: st, iters: iters}
	}
	// Drive basic artificials out of the basis where possible, then pin all
	// artificials to zero for phase 2.
	s.driveOutArtificials()
	for j := p.n; j < s.ncols; j++ {
		s.lo[j], s.hi[j] = 0, 0
		if s.state[j] != stBasic {
			s.state[j] = stLower
			s.xval[j] = 0
		}
	}

	// Phase 2. A singular refactorization inside it (lpNumerical) goes on
	// to the vertex report, whose fresh factorization decides.
	st, it := s.iterate(p.c, deadline)
	iters += it
	if st == lpTimeLimit || st == lpIterLimit || st == lpUnbounded {
		return lpSolution{status: st, iters: iters}
	}
	return s.vertex(iters)
}

// vertex reports the current basis as the solve's optimum: a fresh
// factorization recomputes the basic values, so the reported vertex carries
// one FTRAN's rounding error instead of the drift accumulated across the
// eta-file updates. A singular factorization reports lpNumerical.
func (s *simplexState) vertex(iters int) lpSolution {
	if err := s.refactorize(); err != nil {
		return lpSolution{status: lpNumerical, iters: iters}
	}
	p := s.p
	x := make([]float64, p.nStruct)
	copy(x, s.xval[:p.nStruct])
	obj := 0.0
	for j := 0; j < p.n; j++ {
		obj += p.c[j] * s.xval[j]
	}
	return lpSolution{status: lpOptimal, x: x, obj: obj, iters: iters, basis: s.snapshotBasis()}
}

// startCold sets up the cold-start state: nonbasic structural/slack
// columns at their nearest finite bound, one artificial per row covering
// the residual, and the all-artificial (diagonal) LU basis.
func (s *simplexState) startCold(p *lpTemplate, lo, hi []float64) {
	s.reset(p, lo, hi, Inf)

	// Nonbasic starting point: finite lower bound, else finite upper bound,
	// else 0 (free).
	for j := 0; j < p.n; j++ {
		switch {
		case !math.IsInf(s.lo[j], -1):
			s.state[j], s.xval[j] = stLower, s.lo[j]
		case !math.IsInf(s.hi[j], 1):
			s.state[j], s.xval[j] = stUpper, s.hi[j]
		default:
			s.state[j], s.xval[j] = stFree, 0
		}
	}

	// Residual r = b - A*xN determines the artificial columns.
	r := s.rhs
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
		s.setArtificial(i, sign)
		s.basis[i] = art
		s.state[art] = stBasic
		s.xval[art] = math.Abs(r[i])
	}
	// The all-artificial basis is diagonal; factorization cannot fail.
	if err := s.rep.factorize(s.cols, s.basis); err != nil {
		panic("milp: diagonal artificial basis failed to factorize: " + err.Error())
	}
}

// phase1 runs phase-1 iterations with the given cost vector and maps the
// outcome: lpOptimal means the problem is feasible and the state is ready
// for phase 2. The cost vector is a parameter so tests can inject a
// corrupted one and exercise the lpNumerical guard, which is unreachable
// with the true phase-1 costs in exact arithmetic.
//
// iterate reports lpNumerical when one of its refactorizations finds the
// basis singular. phase1 does not act on that: it sums the basic
// artificials of the half-rebuilt representation like any other outcome,
// so a singular refactorization can come out as lpOptimal. Such events are
// counted in KernelStats.SingularRefactors.
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

// phase1CostVec returns the phase-1 cost vector (1 on every artificial),
// held in the workspace.
func (s *simplexState) phase1CostVec() []float64 {
	cost := s.p1cost
	clear(cost)
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
	return -1, 0
}

// reducedCost computes column j's reduced cost oriented along its
// admissible move direction: the returned d is negative when moving j in
// direction dir improves the objective. ok is false for basic and fixed
// columns.
func (s *simplexState) reducedCost(cost, y []float64, j int) (d, dir float64, ok bool) {
	stj := s.state[j]
	if stj == stBasic {
		return 0, 0, false
	}
	if isFixed(s.lo[j], s.hi[j]) && stj != stFree {
		return 0, 0, false // fixed variable can never improve
	}
	d = cost[j]
	col := &s.cols[j]
	for k, row := range col.rows {
		d -= y[row] * col.vals[k]
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
	p := s.p
	for i := 0; i < p.m; i++ {
		ri := rho[i]
		if ri == 0 {
			continue
		}
		for _, e := range p.rowwise[i] {
			if s.amark[e.idx] != s.aepoch {
				s.amark[e.idx] = s.aepoch
				s.alpha[e.idx] = 0
				s.atouched = append(s.atouched, e.idx)
			}
			s.alpha[e.idx] += ri * e.val
		}
		// Row i's artificial has its single entry in row i and the highest
		// column index of the row, so it is gathered last, in column order
		// like the template entries.
		art := int32(p.n + i)
		s.amark[art] = s.aepoch
		s.alpha[art] = ri * s.artSign[i]
		s.atouched = append(s.atouched, art)
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
// basis representation. A refactorization that finds the basis singular
// stops it with lpNumerical.
func (s *simplexState) iterate(cost []float64, deadline time.Time) (lpStatus, int) {
	p := s.p
	y, w, rho := s.y, s.w, s.rho
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
		for k, row := range s.cols[enter].rows {
			w[row] = s.cols[enter].vals[k]
		}
		s.rep.ftran(w)

		// Ratio test. The entering variable moves by delta >= 0 in
		// direction enterDir; basic variable i changes by -enterDir*w[i]*delta.
		delta := math.Inf(1)
		if !math.IsInf(s.lo[enter], -1) && !math.IsInf(s.hi[enter], 1) {
			delta = s.hi[enter] - s.lo[enter]
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
				if math.IsInf(s.lo[bv], -1) {
					continue
				}
				lim = (s.xval[bv] - s.lo[bv]) / -step
				hitState = stLower
			} else { // increases toward its upper bound
				if math.IsInf(s.hi[bv], 1) {
					continue
				}
				lim = (s.hi[bv] - s.xval[bv]) / step
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
			s.xval[bv] = s.lo[bv]
		} else {
			s.xval[bv] = s.hi[bv]
		}
		s.basis[leave] = enter
		s.state[enter] = stBasic

		if math.Abs(w[leave]) < pivotTol {
			// Numerically unsafe pivot: refactorize the (already updated)
			// basis instead of appending an eta with a tiny pivot.
			if err := s.refactorize(); err != nil {
				return lpNumerical, iters
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
				return lpNumerical, iters
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
	w, rho := s.w, s.rho
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
	if err := s.rep.factorize(s.cols, s.basis); err != nil {
		return err
	}
	rhs := s.rhs
	copy(rhs, p.b)
	for j := 0; j < s.ncols; j++ {
		if s.state[j] == stBasic || s.xval[j] == 0 {
			continue
		}
		for k, row := range s.cols[j].rows {
			rhs[row] -= s.cols[j].vals[k] * s.xval[j]
		}
	}
	s.rep.ftran(rhs)
	for i := 0; i < p.m; i++ {
		s.xval[s.basis[i]] = rhs[i]
	}
	return nil
}
