package milp

import (
	"fmt"
	"math"
	"time"
)

// This file implements the dual-simplex warm path of the branch-and-bound
// search. A child node differs from its parent by a single tightened
// variable bound, so the parent's optimal basis stays dual-feasible for the
// child — the textbook dual-simplex warm start. warmSolveLP rebuilds that
// basis on the child's bounds and runs the dual simplex, fathoming the node
// on the way when a certified bound crosses the incumbent cutoff or a
// verified Farkas certificate proves it infeasible. Otherwise it repairs
// primal feasibility, runs a true-cost primal cleanup to optimality and
// reports the vertex from a fresh factorization. The warm vertex may differ
// from the one a cold solve of the same node reports (both are optimal), so
// warm and cold searches agree on status and optimum but not on their
// trajectories; each one replays bit-identically on its own.
//
// Fallback ladder (any rung drops to the cold two-phase path):
//  1. snapshot does not fit the child's computational form,
//  2. singular refactorization of the parent basis,
//  3. numerically unsafe dual pivot (|pivot| < pivotTol),
//  4. per-node dual pivot budget or the solver deadline exhausted,
//  5. untrusted infeasibility certificate (violation <= certTrust),
//  6. primal cleanup hits its iteration limit or a singular basis.

const (
	// certTrust is the minimum primal bound violation for which a
	// dual-unboundedness (Farkas) certificate is even considered; it is
	// then verified against the original matrix data (see certInfeasible).
	// Violations at or below it fall back to the cold path, whose phase 1
	// decides feasibility authoritatively.
	certTrust = 1e-4
	// certSafety is the relative floating-point safety margin applied to
	// certificate evaluations (certInfeasible, certLowerBound). It is
	// relative to the accumulated magnitude of the evaluated terms *before*
	// cancellation, so it dominates the worst-case rounding error of the
	// evaluation by several orders of magnitude.
	certSafety = 1e-7
	// certNoise bounds the relative rounding noise of a single sparse dot
	// product: a computed coefficient whose magnitude is below certNoise
	// times the sum of its |term|s has an untrusted sign and is treated as
	// possibly zero.
	certNoise = 1e-12
)

// Basis is a snapshot of a simplex basis, used to warm-start the
// dual-simplex solve of child nodes (and, via Params.WarmBasis, re-solves
// of the same model). Column indices follow the computational form built by
// buildLP: structural variables first, then one slack per constraint, then
// one phase-1 artificial per constraint.
type Basis struct {
	// Cols holds the basic column of each constraint row.
	Cols []int32
	// States holds the simplex state of every column (basic, at lower
	// bound, at upper bound, or free), length #vars + 2*#constraints.
	States []int8
	// ArtSign holds the +/-1 sign of each artificial column, which depends
	// on the residual of the originating solve and must be reproduced for
	// the snapshot's basis matrix to be reconstructed exactly.
	ArtSign []int8
}

// validate checks the snapshot against a model shape (nStruct variables,
// rows constraints).
func (b *Basis) validate(nStruct, rows int) error {
	ncols := nStruct + 2*rows
	if len(b.Cols) != rows || len(b.States) != ncols || len(b.ArtSign) != rows {
		return fmt.Errorf("shape mismatch: basis %d/%d/%d, model wants %d/%d/%d",
			len(b.Cols), len(b.States), len(b.ArtSign), rows, ncols, rows)
	}
	inBasis := make([]bool, ncols)
	for _, c := range b.Cols {
		if c < 0 || int(c) >= ncols {
			return fmt.Errorf("basic column %d out of range [0, %d)", c, ncols)
		}
		if inBasis[c] {
			return fmt.Errorf("column %d basic in more than one row", c)
		}
		inBasis[c] = true
		if b.States[c] != stBasic {
			return fmt.Errorf("column %d in the basis but not marked basic", c)
		}
	}
	for j, st := range b.States {
		switch st {
		case stBasic:
			if !inBasis[j] {
				return fmt.Errorf("column %d marked basic but missing from the basis", j)
			}
		case stLower, stUpper, stFree:
		default:
			return fmt.Errorf("column %d has invalid state %d", j, st)
		}
	}
	for i, sg := range b.ArtSign {
		if sg != 1 && sg != -1 {
			return fmt.Errorf("artificial %d has invalid sign %d", i, sg)
		}
	}
	return nil
}

// snapshotBasis captures the current basis of an optimal solve for reuse by
// child-node warm solves.
func (s *simplexState) snapshotBasis() *Basis {
	p := s.p
	b := &Basis{
		Cols:    make([]int32, p.m),
		States:  make([]int8, s.ncols),
		ArtSign: make([]int8, p.m),
	}
	for i, bv := range s.basis {
		b.Cols[i] = int32(bv)
	}
	copy(b.States, s.state)
	for i := 0; i < p.m; i++ {
		if p.cols[p.n+i].vals[0] < 0 {
			b.ArtSign[i] = -1
		} else {
			b.ArtSign[i] = 1
		}
	}
	return b
}

// KernelStats aggregates simplex-kernel counters across a branch-and-bound
// solve. They are merged in node dispatch order, so — like the rest of the
// Solution — they are identical for every Params.Workers value.
type KernelStats struct {
	// WarmAttempts counts nodes that entered the dual-simplex warm solve.
	WarmAttempts int
	// WarmHits counts warm solves that fathomed their node (incumbent cutoff
	// or trusted infeasibility certificate) without a cold solve.
	WarmHits int
	// ColdSolves counts full two-phase simplex solves.
	ColdSolves int
	// ColdFallbacks counts warm solves abandoned on the fallback ladder
	// before a cold solve (numerical safety, pivot budget, deadline).
	ColdFallbacks int
	// WarmIters counts simplex pivots spent inside warm solves (dual repair
	// plus primal cleanup).
	WarmIters int
	// Phase1Iters counts phase-1 iterations spent by cold solves.
	Phase1Iters int
	// Phase1ItersSaved estimates the phase-1 work the warm path avoided:
	// (WarmHits + WarmExpands) times the mean phase-1 iterations per cold
	// solve.
	Phase1ItersSaved int
	// Refactorizations counts sparse-LU basis rebuilds across all solves.
	Refactorizations int
	// FtranSolves / BtranSolves count sparse forward/backward solves against
	// the LU + eta-file representation; FtranNnz / BtranNnz accumulate the
	// nonzeros of their results, so the mean result density
	// (FtranNnz / (FtranSolves * m)) measures how much the sparse kernel
	// actually exploits sparsity versus the dense sweeps it replaced.
	FtranSolves int
	FtranNnz    int
	BtranSolves int
	BtranNnz    int
	// EtaUpdates counts product-form basis updates between refactorizations;
	// EtaNnz accumulates the eta-vector nonzeros (the eta-file growth that
	// the refactorization cadence bounds).
	EtaUpdates int
	EtaNnz     int
	// LuNnz accumulates the L+U nonzeros over all refactorizations: fill-in
	// relative to the basis-matrix nonzeros measures factorization quality.
	LuNnz int
	// WarmExpands counts expanded nodes whose relaxation was solved to
	// true-cost optimality directly from the parent basis (dual repair plus
	// primal cleanup) instead of the cold two-phase path.
	WarmExpands int
	// Steals counts work-stealing events (a worker taking a node from
	// another worker's deque). FastSearch only; 0 otherwise. Like every
	// counter under FastSearch it depends on scheduling and is NOT
	// reproducible across runs.
	Steals int
}

func (k *KernelStats) add(o KernelStats) {
	k.WarmAttempts += o.WarmAttempts
	k.WarmHits += o.WarmHits
	k.ColdSolves += o.ColdSolves
	k.ColdFallbacks += o.ColdFallbacks
	k.WarmIters += o.WarmIters
	k.Phase1Iters += o.Phase1Iters
	k.Phase1ItersSaved += o.Phase1ItersSaved
	k.Refactorizations += o.Refactorizations
	k.FtranSolves += o.FtranSolves
	k.FtranNnz += o.FtranNnz
	k.BtranSolves += o.BtranSolves
	k.BtranNnz += o.BtranNnz
	k.EtaUpdates += o.EtaUpdates
	k.EtaNnz += o.EtaNnz
	k.LuNnz += o.LuNnz
	k.WarmExpands += o.WarmExpands
	k.Steals += o.Steals
}

// addCounters folds one solve's kernel counters into the aggregate.
func (k *KernelStats) addCounters(c kernelCounters) {
	k.Refactorizations += c.refactors
	k.FtranSolves += c.ftranSolves
	k.FtranNnz += c.ftranNnz
	k.BtranSolves += c.btranSolves
	k.BtranNnz += c.btranNnz
	k.EtaUpdates += c.etaUpdates
	k.EtaNnz += c.etaNnz
	k.LuNnz += c.luNnz
}

// probeOutcome is the verdict of one warm solve.
type probeOutcome int

const (
	// probeOpen: the warm solve reached an authoritative LP answer below
	// the cutoff (dualFathom: primal feasibility); the node is expanded.
	probeOpen probeOutcome = iota
	// probeCutoff: the relaxation bound provably exceeds the incumbent
	// cutoff; the node is fathomed.
	probeCutoff
	// probeInfeasible: a trusted Farkas certificate proves the relaxation
	// infeasible; the node is fathomed.
	probeInfeasible
	// probeFallback: the warm solve hit the fallback ladder; the node goes
	// to the cold path undecided.
	probeFallback
)

// newWarmState rebuilds the parent basis snapshot on an already-built child
// problem: artificial columns pinned to zero with the snapshot's signs,
// nonbasic values taken from the child's bounds, deterministically perturbed
// pricing costs, and a fresh factorization. ok is false when the snapshot
// does not fit the problem shape, a nonbasic state points at an infinite
// bound, or the refactorization is singular; the returned state (nil only on
// the shape mismatch) still carries its linear-algebra counters.
func newWarmState(p *lpProblem, snap *Basis) (*simplexState, bool) {
	if len(snap.Cols) != p.m || len(snap.States) != p.n+p.m || len(snap.ArtSign) != p.m {
		return nil, false
	}
	for i := 0; i < p.m; i++ {
		// Artificials are pinned to zero (the snapshot comes from a
		// completed phase 2) but must carry the originating solve's sign so
		// the basis matrix matches the snapshot.
		p.cols = append(p.cols, sparseCol{rows: []int{i}, vals: []float64{float64(snap.ArtSign[i])}})
		p.lo = append(p.lo, 0)
		p.hi = append(p.hi, 0)
	}
	s := newSimplexState(p)
	copy(s.state, snap.States)
	for i := 0; i < p.m; i++ {
		s.basis[i] = int(snap.Cols[i])
	}
	// Nonbasic values come from the child's bounds. A nonbasic state
	// pointing at an infinite bound means the snapshot does not fit this
	// box.
	for j := 0; j < s.ncols; j++ {
		switch s.state[j] {
		case stLower:
			if math.IsInf(p.lo[j], -1) {
				return s, false
			}
			s.xval[j] = p.lo[j]
		case stUpper:
			if math.IsInf(p.hi[j], 1) {
				return s, false
			}
			s.xval[j] = p.hi[j]
		case stFree:
			s.xval[j] = 0
		}
	}
	// Price on deterministically perturbed costs: the LPs here are massively
	// dual-degenerate (many zero reduced costs), and an unperturbed dual
	// simplex cycles through zero-ratio pivots without ever moving the
	// bound. Distinct tiny cost offsets make the dual ratios generically
	// nonzero, so every pivot strictly improves the perturbed dual — the
	// standard anti-degeneracy cure. Soundness is untouched: the fathoming
	// certificates (certLowerBound, certInfeasible) evaluate the TRUE costs
	// for whatever multipliers the perturbed pricing produces, and they are
	// valid for any multiplier vector. The perturbation only makes the
	// certified bound lag by roughly the perturbation mass over the box.
	s.pcost = make([]float64, s.ncols)
	for j := range s.pcost {
		h := uint32(j+1) * 2654435761 // Knuth multiplicative hash, j-dependent
		frac := float64(h>>20) / float64(1<<12)
		s.pcost[j] = p.c[j] + 1e-10*(1+math.Abs(p.c[j]))*(1+frac)
	}
	s.buildRowwise()
	if err := s.refactorize(); err != nil {
		return s, false
	}
	return s, true
}

// warmSolveLP solves a child node's relaxation from the parent basis to a
// reportable LP answer: the dual simplex repairs primal feasibility
// (fathoming on the way against the cutoff incObj, with gcdStep and
// objOffset mirroring the search's pruning arithmetic so a warm fathom
// implies a prune), then a true-cost primal cleanup runs to optimality and
// the vertex is reported from a fresh factorization, mirroring solveLP's
// finalization. Statuses: lpCutoff/lpInfeasible fathom the node, lpOptimal
// carries x/obj/basis (obj WITHOUT the objective constant, like solveLP),
// lpTimeLimit surfaces an expired deadline, and anything the warm path
// cannot decide authoritatively comes back as probeFallback for a cold
// re-solve.
func warmSolveLP(minM *Model, lo, hi []float64, snap *Basis, incObj, gcdStep, objOffset float64, budget int, deadline time.Time) (lpSolution, probeOutcome) {
	p := buildLP(minM, lo, hi)
	for j := 0; j < p.n; j++ {
		if p.lo[j] > p.hi[j]+feasTol {
			return lpSolution{status: lpInfeasible}, probeInfeasible
		}
	}
	s, ok := newWarmState(p, snap)
	if !ok {
		var ctr kernelCounters
		if s != nil {
			ctr = s.counters
		}
		return lpSolution{counters: ctr}, probeFallback
	}
	out, iters := s.dualFathom(incObj, gcdStep, objOffset, budget, deadline)
	sol := lpSolution{iters: iters, counters: s.counters}
	switch out {
	case probeCutoff:
		sol.status = lpCutoff
		return sol, out
	case probeInfeasible:
		sol.status = lpInfeasible
		return sol, out
	case probeFallback:
		return sol, out
	}

	// probeOpen: the basis is primal feasible. Finish on the TRUE costs —
	// the dual sweep priced a perturbed objective, so a few primal pivots
	// may remain before the vertex is optimal for the real one.
	st2, it2 := s.iterate(p.c, deadline)
	sol.iters += it2
	sol.counters = s.counters
	switch st2 {
	case lpTimeLimit:
		sol.status = lpTimeLimit
		return sol, probeFallback
	case lpUnbounded:
		// Sound from a primal-feasible basis, and the caller's unbounded
		// handling does not need a vertex.
		sol.status = lpUnbounded
		return sol, probeOpen
	case lpIterLimit, lpInfeasible:
		// lpInfeasible here is iterate's tiny-pivot refactorization failure,
		// not a feasibility verdict; both cases go to the cold path.
		return sol, probeFallback
	}
	// Final cleanup solve, exactly as in solveLP: the reported vertex
	// carries one FTRAN of rounding, not the eta-file drift.
	if err := s.refactorize(); err != nil {
		sol.counters = s.counters
		return sol, probeFallback
	}
	x := make([]float64, p.nStruct)
	copy(x, s.xval[:p.nStruct])
	obj := 0.0
	for j := 0; j < p.n; j++ {
		obj += p.c[j] * s.xval[j]
	}
	sol.status = lpOptimal
	sol.x = x
	sol.obj = obj
	sol.basis = s.snapshotBasis()
	sol.counters = s.counters
	return sol, probeOpen
}

// certBox returns the per-column bounds used by the certificate
// evaluations: the variable box with infinite ends replaced, where
// possible, by finite implied bounds derived from the equality rows and the
// other columns' boxes (v*x_j = b_i - rest, so x_j ranges over the interval
// (b_i - rest)/v). Implied bounds hold for every feasible point, so
// intersecting them keeps the certificates rigorous, and they are widened
// by a pad that dominates their own rounding error by orders of magnitude,
// so imprecision can only loosen them. Without them any basic column with
// an infinite bound collapses certLowerBound to -Inf: the drifted duals
// leave its reduced cost at rounding-noise level rather than exactly zero,
// and noise times infinity is unbounded. Inequality slacks all have
// infinite upper bounds, so this is the difference between a dead cutoff
// test and a working one. The result is cached: a warm solve's bounds never
// change after construction.
func (s *simplexState) certBox() (lo, hi []float64) {
	if s.certLo != nil {
		return s.certLo, s.certHi
	}
	p := s.p
	lo = append([]float64(nil), p.lo[:s.ncols]...)
	hi = append([]float64(nil), p.hi[:s.ncols]...)

	finMin := make([]float64, p.m)
	finMax := make([]float64, p.m)
	finAbs := make([]float64, p.m)
	infMin := make([]int, p.m)
	infMax := make([]int, p.m)
	// A second pass lets a bound derived in the first (e.g. for a slack)
	// unlock bounds for columns sharing a row with it.
	for pass := 0; pass < 2; pass++ {
		// Row activity intervals over the current box, with infinite
		// contributions tracked by count so a single column's own infinity
		// can be excluded from its "rest of the row" interval.
		for i := 0; i < p.m; i++ {
			finMin[i], finMax[i], finAbs[i] = 0, 0, 0
			infMin[i], infMax[i] = 0, 0
		}
		for j := 0; j < s.ncols; j++ {
			for k, row := range p.cols[j].rows {
				v := p.cols[j].vals[k]
				if v == 0 {
					continue
				}
				mn, mx := v*lo[j], v*hi[j]
				if v < 0 {
					mn, mx = mx, mn
				}
				if math.IsInf(mn, -1) {
					infMin[row]++
				} else {
					finMin[row] += mn
					finAbs[row] += math.Abs(mn)
				}
				if math.IsInf(mx, 1) {
					infMax[row]++
				} else {
					finMax[row] += mx
					finAbs[row] += math.Abs(mx)
				}
			}
		}
		changed := false
		for j := 0; j < s.ncols; j++ {
			if !math.IsInf(lo[j], -1) && !math.IsInf(hi[j], 1) {
				continue
			}
			for k, row := range p.cols[j].rows {
				v := p.cols[j].vals[k]
				if v == 0 {
					continue
				}
				mn, mx := v*lo[j], v*hi[j]
				if v < 0 {
					mn, mx = mx, mn
				}
				restMin, restMax := math.Inf(-1), math.Inf(1)
				if math.IsInf(mn, -1) {
					if infMin[row] == 1 {
						restMin = finMin[row]
					}
				} else if infMin[row] == 0 {
					restMin = finMin[row] - mn
				}
				if math.IsInf(mx, 1) {
					if infMax[row] == 1 {
						restMax = finMax[row]
					}
				} else if infMax[row] == 0 {
					restMax = finMax[row] - mx
				}
				cl, ch := (p.b[row]-restMax)/v, (p.b[row]-restMin)/v
				if v < 0 {
					cl, ch = ch, cl
				}
				// The pad is relative to the full pre-cancellation magnitude
				// of the row evaluation, so it dominates the true rounding
				// error (~machine epsilon times the same magnitude) by ~1e7.
				pad := 1e-9 * (1 + (finAbs[row]+math.Abs(p.b[row]))/math.Abs(v))
				if cl -= pad + 1e-9*math.Abs(cl); cl > lo[j] {
					lo[j] = cl
					changed = true
				}
				if ch += pad + 1e-9*math.Abs(ch); ch < hi[j] {
					hi[j] = ch
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	s.certLo, s.certHi = lo, hi
	return lo, hi
}

// certInfeasible verifies a dual-ray infeasibility certificate
// independently of the (possibly drifted) simplex iterates: for ANY row
// vector u, every feasible x satisfies u'Ax = u'b, so if the interval of
// u'Ax over the variable box excludes u'b by more than a conservative
// floating-point safety margin, the relaxation is provably infeasible —
// even when u itself is a numerically imperfect B^-1 row. Intervals with an
// infinite (or NaN-poisoned) relevant end are inconclusive and report
// false, sending the node to the cold path.
func (s *simplexState) certInfeasible(u []float64) bool {
	p := s.p
	clo, chi := s.certBox()
	rb, rbAbs := 0.0, 0.0
	for i := 0; i < p.m; i++ {
		t := u[i] * p.b[i]
		rb += t
		rbAbs += math.Abs(t)
	}
	var lsum, usum, scale float64
	for j := 0; j < s.ncols; j++ {
		// aAbs accumulates the pre-cancellation magnitude of the dot
		// product: the rounding error of alpha scales with it, not with
		// alpha itself.
		alpha, aAbs := 0.0, 0.0
		for k, row := range p.cols[j].rows {
			t := u[row] * p.cols[j].vals[k]
			alpha += t
			aAbs += math.Abs(t)
		}
		if aAbs == 0 {
			continue
		}
		lo, hi := clo[j], chi[j]
		var mn, mx float64
		switch noise := certNoise * aAbs; {
		case alpha > noise:
			mn, mx = alpha*lo, alpha*hi
		case alpha < -noise:
			mn, mx = alpha*hi, alpha*lo
		default:
			// The true alpha's sign is below the dot product's rounding
			// noise: with a finite box the term's interval is the hull of
			// both orientations; with an infinite bound it is unbounded.
			if math.IsInf(lo, -1) || math.IsInf(hi, 1) {
				mn, mx = math.Inf(-1), math.Inf(1)
			} else {
				mn = math.Min(alpha*lo, alpha*hi)
				mx = math.Max(alpha*lo, alpha*hi)
			}
		}
		lsum += mn
		usum += mx
		// Conservative: count every finite bound the term may have touched.
		if !math.IsInf(lo, 0) {
			scale += aAbs * math.Abs(lo)
		}
		if !math.IsInf(hi, 0) {
			scale += aAbs * math.Abs(hi)
		}
	}
	margin := certSafety * (1 + rbAbs + scale)
	if lsum > rb+margin {
		return true
	}
	return usum < rb-margin
}

// certLowerBound evaluates the Lagrangian dual bound for the candidate
// multipliers y against the original matrix data:
//
//	L(y) = y'b + sum_j min over [lo_j, hi_j] of (c_j - y'A_j) x_j
//
// Weak duality makes L(y) a valid lower bound on the relaxation optimum for
// ANY y — dual feasibility is not required — so numerically drifted simplex
// duals can only weaken the bound, never invalidate it. The only error left
// is this routine's own evaluation, which is dominated by the returned
// safety margin: reduced costs whose sign is below the dot product's
// rounding noise are treated as possibly zero (a bound left infinite even
// by certBox then makes the term unbounded, collapsing L to -Inf), and the
// final margin is relative to the pre-cancellation magnitude of every term
// evaluated.
func (s *simplexState) certLowerBound(y []float64) float64 {
	p := s.p
	clo, chi := s.certBox()
	lb, scale := 0.0, 0.0
	for i := 0; i < p.m; i++ {
		t := y[i] * p.b[i]
		lb += t
		scale += math.Abs(t)
	}
	for j := 0; j < s.ncols; j++ {
		d, dAbs := p.c[j], math.Abs(p.c[j])
		for k, row := range p.cols[j].rows {
			t := y[row] * p.cols[j].vals[k]
			d -= t
			dAbs += math.Abs(t)
		}
		if dAbs == 0 {
			continue
		}
		lo, hi := clo[j], chi[j]
		var t float64
		switch noise := certNoise * dAbs; {
		case d > noise:
			t = d * lo // -Inf when lo is -Inf: bound collapses
		case d < -noise:
			t = d * hi
		default:
			// Sign untrusted: with finite bounds take the worse
			// orientation; an infinite bound could hide an unbounded term.
			if math.IsInf(lo, -1) || math.IsInf(hi, 1) {
				return math.Inf(-1)
			}
			t = math.Min(d*lo, d*hi)
		}
		if math.IsInf(t, -1) {
			return math.Inf(-1)
		}
		lb += t
		// Conservative: count every finite bound the term may have touched.
		if !math.IsInf(lo, 0) {
			scale += dAbs * math.Abs(lo)
		}
		if !math.IsInf(hi, 0) {
			scale += dAbs * math.Abs(hi)
		}
	}
	return lb - certSafety*(1+scale)
}

// dualFathom runs bounded-variable dual-simplex pivots from the current
// basis until it is primal feasible (probeOpen), the node is fathomed, or the
// pivot budget or deadline runs out (probeFallback). Each iteration it first
// tries to fathom on the Lagrangian bound certLowerBound(y) computed for the
// current basis's dual values y: weak duality makes it a valid relaxation
// bound for ANY y, so cutoff fathoming is safe whether or not the basis is
// (numerically) dual-feasible — the certificate evaluation against the
// original matrix data, not the drifted simplex iterates, is what carries
// the proof.
func (s *simplexState) dualFathom(incObj, gcdStep, objOffset float64, budget int, deadline time.Time) (probeOutcome, int) {
	p := s.p
	y := make([]float64, p.m)
	w := make([]float64, p.m)
	rho := make([]float64, p.m)
	sincePivot := 0

	for iters := 0; ; iters++ {
		if iters >= budget {
			return probeFallback, iters
		}
		if !deadline.IsZero() && iters%deadlinePollEvery == 0 && time.Now().After(deadline) {
			return probeFallback, iters
		}

		// Dual values y = B^-T c_B for the (perturbed) phase-2 costs.
		for i := 0; i < p.m; i++ {
			y[i] = s.pcost[s.basis[i]]
		}
		s.rep.btran(y)

		// Lower bound of the node relaxation, certified against the
		// original matrix data for the current (possibly drifted) duals.
		zb := s.certLowerBound(y) + objOffset
		if gcdStep > 0 {
			zb = roundBoundUp(zb, gcdStep, objOffset)
		}
		// Same prune threshold as the search, applied to a bound that is
		// (margin included) below the true relaxation optimum: if the warm
		// solve fathoms, a full solve would have been pruned too.
		if zb > incObj-1e-9 {
			return probeCutoff, iters
		}

		// Leaving row: worst primal bound violation; ties keep the first
		// row, so the pivot sequence is deterministic.
		r := -1
		worst := feasTol
		var target float64
		var leaveAt int8
		for i := 0; i < p.m; i++ {
			bv := s.basis[i]
			if v := p.lo[bv] - s.xval[bv]; v > worst {
				r, worst, target, leaveAt = i, v, p.lo[bv], stLower
			}
			if v := s.xval[bv] - p.hi[bv]; v > worst {
				r, worst, target, leaveAt = i, v, p.hi[bv], stUpper
			}
		}
		if r == -1 {
			// Primal feasible below the cutoff: the node must be expanded.
			return probeOpen, iters
		}
		bv := s.basis[r]
		// Pivot row r of B^-1 A, gathered sparsely through one BTRAN and the
		// row-major matrix view; rho holds the B^-1 row itself for the
		// infeasibility certificate.
		for i := range rho {
			rho[i] = 0
		}
		s.pivotRowAlpha(r, rho)
		// The leaving basic moves to its violated bound: it must increase
		// when below its lower bound, decrease when above its upper bound.
		mustIncrease := leaveAt == stLower

		// Entering column: dual ratio test |d_j| / |alpha_j| over the
		// sign-eligible nonbasics. Columns the gather never touched have an
		// exactly-zero pivot entry and are skipped without any arithmetic.
		enter := -1
		bestRatio := math.Inf(1)
		for j := 0; j < s.ncols; j++ {
			stj := s.state[j]
			if stj == stBasic {
				continue
			}
			if isFixed(p.lo[j], p.hi[j]) && stj != stFree {
				continue
			}
			if s.amark[j] != s.aepoch {
				continue
			}
			alpha := s.alpha[j]
			if math.Abs(alpha) <= pivotTol {
				continue
			}
			// The basic value changes by -alpha * delta(x_j); a column is
			// eligible when its admissible move direction pushes the basic
			// value toward the violated bound.
			ok := false
			switch stj {
			case stLower: // x_j may only increase
				ok = (mustIncrease && alpha < 0) || (!mustIncrease && alpha > 0)
			case stUpper: // x_j may only decrease
				ok = (mustIncrease && alpha > 0) || (!mustIncrease && alpha < 0)
			case stFree:
				ok = true
			}
			if !ok {
				continue
			}
			d := s.pcost[j]
			for k, row := range p.cols[j].rows {
				d -= y[row] * p.cols[j].vals[k]
			}
			if ratio := math.Abs(d) / math.Abs(alpha); ratio < bestRatio-1e-15 {
				bestRatio = ratio
				enter = j
			}
		}
		if enter == -1 {
			// Dual unboundedness: no column can repair the violated row, so
			// the relaxation looks infeasible. Only fathom when the ray
			// certificate checks out against the original matrix data —
			// borderline or unverifiable cases go to the cold path for an
			// authoritative phase-1 answer.
			if worst > certTrust && s.certInfeasible(rho) {
				return probeInfeasible, iters
			}
			return probeFallback, iters
		}

		// Pivot: w = B^-1 A_enter, step the entering variable so the
		// leaving basic lands exactly on its violated bound.
		for i := range w {
			w[i] = 0
		}
		for k, row := range p.cols[enter].rows {
			w[row] = p.cols[enter].vals[k]
		}
		s.rep.ftran(w)
		if math.Abs(w[r]) < pivotTol {
			return probeFallback, iters
		}
		t := (s.xval[bv] - target) / w[r]
		for i := 0; i < p.m; i++ {
			s.xval[s.basis[i]] -= w[i] * t
		}
		s.xval[enter] += t
		s.xval[bv] = target
		s.state[bv] = leaveAt
		s.basis[r] = enter
		s.state[enter] = stBasic
		s.rep.update(r, w)

		sincePivot++
		if sincePivot >= refactor {
			sincePivot = 0
			if err := s.refactorize(); err != nil {
				return probeFallback, iters + 1
			}
		}
	}
}
