package milp

import (
	"math"
	"testing"
	"time"
)

func rootBounds(m *Model) (lo, hi []float64) {
	lo = make([]float64, len(m.Vars))
	hi = make([]float64, len(m.Vars))
	for i, v := range m.Vars {
		lo[i], hi[i] = v.Lo, v.Hi
	}
	return lo, hi
}

// TestPhase1UnboundedSurfacedAsNumerical: an unbounded phase-1 verdict is
// impossible in exact arithmetic (the artificial sum is bounded below by
// zero), so it must surface as lpNumerical instead of falling through to
// the feasibility check. The corruption is injected through the phase-1
// cost vector: flipping the artificial's cost to -1 makes the artificial
// ray look improving, which is exactly the shape a numerically corrupted
// pricing pass would produce.
func TestPhase1UnboundedSurfacedAsNumerical(t *testing.T) {
	m := NewModel()
	x := m.AddContinuous("x", 0, Inf)
	y := m.AddContinuous("y", 0, Inf)
	m.AddEQ("e", NewExpr(0).Add(x, 1).Add(y, -1), 1)
	m.SetObjective(Minimize, Sum(1, x, y))

	lo, hi := rootBounds(m)
	p := buildLP(m, lo, hi)
	s := newColdState(p)

	cost := phase1CostVec(s)
	for j := p.n; j < s.ncols; j++ {
		cost[j] = -1
	}
	st, _ := s.phase1(cost, time.Time{})
	if st != lpNumerical {
		t.Fatalf("corrupted phase 1 returned %v, want lpNumerical", st)
	}

	// The true costs still solve cleanly end to end.
	res := solveLP(m, lo, hi, time.Time{})
	if res.status != lpOptimal {
		t.Fatalf("clean solve status %v, want optimal", res.status)
	}
}

// TestDriveOutArtificials: a degenerate EQ row whose cold-start residual is
// already zero leaves the phase-1 artificial basic at value zero without a
// single pivot. The drive-out pass must replace it before the basis is
// snapshotted, so child warm solves never receive artificial columns.
func TestDriveOutArtificials(t *testing.T) {
	m := NewModel()
	x := m.AddContinuous("x", 0, 5)
	y := m.AddContinuous("y", 0, 5)
	m.AddEQ("e", Sum(1, x, y), 0)
	m.SetObjective(Minimize, NewExpr(0).Add(x, 1).Add(y, 2))

	lo, hi := rootBounds(m)
	res := solveLP(m, lo, hi, time.Time{})
	if res.status != lpOptimal {
		t.Fatalf("status %v, want optimal", res.status)
	}
	if res.basis == nil {
		t.Fatal("optimal solve returned no basis snapshot")
	}
	nArt := len(m.Vars) + len(m.Cons) // first artificial column index
	for i, c := range res.basis.Cols {
		if int(c) >= nArt {
			t.Errorf("row %d: artificial column %d still basic in the snapshot", i, c)
		}
	}
	if err := res.basis.validate(len(m.Vars), len(m.Cons)); err != nil {
		t.Fatalf("snapshot does not validate: %v", err)
	}

	// Round trip: the snapshot must warm-start a solve on the same box
	// without hitting the fallback ladder; with no incumbent the warm solve
	// runs to optimality and reports the cold optimum.
	warmRoundTrip(t, m, lo, hi, res)
}

// warmRoundTrip re-solves the box warm from the cold solve's own basis and
// requires the warm path to settle it (no fallback) at the cold optimum.
func warmRoundTrip(t *testing.T, m *Model, lo, hi []float64, cold lpSolution) {
	t.Helper()
	warm, out := warmSolveLP(m, lo, hi, cold.basis, math.Inf(1), 0, 0, 300, time.Time{})
	if out != probeOpen || warm.status != lpOptimal {
		t.Fatalf("warm solve outcome %v status %v, want probeOpen/optimal", out, warm.status)
	}
	if math.Abs(warm.obj-cold.obj) > 1e-9 {
		t.Fatalf("warm optimum %g, cold optimum %g", warm.obj, cold.obj)
	}
	if err := warm.basis.validate(len(m.Vars), len(m.Cons)); err != nil {
		t.Fatalf("warm snapshot does not validate: %v", err)
	}
}

// TestDriveOutRedundantEQ: with a scaled-duplicate EQ row the basis over
// the two rows is singular without an artificial, so exactly the redundant
// row keeps its pinned artificial — and the snapshot must still round-trip
// through warmSolveLP (the warm solve rebuilds the basis with the
// artificial pinned to zero, which stays factorizable).
func TestDriveOutRedundantEQ(t *testing.T) {
	m := NewModel()
	x := m.AddInteger("x", 0, 5)
	y := m.AddInteger("y", 0, 5)
	m.AddEQ("e1", Sum(1, x, y), 4)
	m.AddEQ("e2", NewExpr(0).Add(x, 2).Add(y, 2), 8)
	m.SetObjective(Minimize, NewExpr(0).Add(x, 3).Add(y, 1))

	lo, hi := rootBounds(m)
	res := solveLP(m, lo, hi, time.Time{})
	if res.status != lpOptimal {
		t.Fatalf("status %v, want optimal", res.status)
	}
	nArt := len(m.Vars) + len(m.Cons)
	arts := 0
	for _, c := range res.basis.Cols {
		if int(c) >= nArt {
			arts++
		}
	}
	if arts > 1 {
		t.Errorf("%d artificials still basic; only the redundant row may keep one", arts)
	}
	warmRoundTrip(t, m, lo, hi, res)

	// End to end, the full search on the model stays correct.
	sol := mustSolve(t, m, Params{})
	if sol.Status != StatusOptimal || math.Abs(sol.Obj-4) > 1e-9 {
		t.Fatalf("solve: status=%v obj=%v, want optimal 4 (x=0, y=4)", sol.Status, sol.Obj)
	}
}
