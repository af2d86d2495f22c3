package milp

import (
	"math"
	"testing"
	"time"
)

func solveRelax(t *testing.T, m *Model) lpSolution {
	t.Helper()
	lo := make([]float64, len(m.Vars))
	hi := make([]float64, len(m.Vars))
	for i, v := range m.Vars {
		lo[i], hi[i] = v.Lo, v.Hi
	}
	sign := 1.0
	if m.ObjSense == Maximize {
		sign = -1.0
	}
	res := solveLPmin(m, sign, lo, hi, time.Time{})
	if res.status == lpOptimal {
		res.obj *= sign
	}
	return res
}

// freshSolveLP solves one LP on a freshly built template in a fresh
// workspace.
func freshSolveLP(m *Model, lo, hi []float64, deadline time.Time) lpSolution {
	return new(simplexState).solveLP(newTemplate(m), lo, hi, deadline)
}

// freshWarmSolveLP is warmSolveLP on a freshly built template in a fresh
// workspace.
func freshWarmSolveLP(m *Model, lo, hi []float64, snap *basisSnapshot, incObj, gcdStep, objOffset float64, budget int, deadline time.Time) lpSolution {
	return new(simplexState).warmSolveLP(newTemplate(m), lo, hi, snap, incObj, gcdStep, objOffset, budget, deadline)
}

// solveLPmin solves the relaxation in minimization sense, including the
// objective constant so that LP bounds and incumbent objectives compare
// directly.
func solveLPmin(m *Model, objSign float64, lo, hi []float64, deadline time.Time) lpSolution {
	var res lpSolution
	if objSign == 1 {
		res = freshSolveLP(m, lo, hi, deadline)
	} else {
		// Negate the objective for maximization models.
		neg := *m
		neg.Obj = Expr{}
		for _, t := range m.Obj.Terms {
			neg.Obj.Terms = append(neg.Obj.Terms, Term{Var: t.Var, Coef: -t.Coef})
		}
		res = freshSolveLP(&neg, lo, hi, deadline)
	}
	if res.status == lpOptimal {
		res.obj += objSign * m.Obj.Const
	}
	return res
}

func TestSimplexBasicMax(t *testing.T) {
	m := NewModel()
	x := m.AddContinuous("x", 0, Inf)
	y := m.AddContinuous("y", 0, Inf)
	m.AddLE("c1", Sum(1, x, y), 4)
	m.AddLE("c2", NewExpr(0).Add(x, 1).Add(y, 3), 6)
	m.SetObjective(Maximize, NewExpr(0).Add(x, 3).Add(y, 2))
	res := solveRelax(t, m)
	if res.status != lpOptimal {
		t.Fatalf("status = %v", res.status)
	}
	if math.Abs(res.obj-12) > 1e-6 {
		t.Errorf("obj = %g, want 12", res.obj)
	}
	if math.Abs(res.x[0]-4) > 1e-6 || math.Abs(res.x[1]) > 1e-6 {
		t.Errorf("x = %v, want (4, 0)", res.x)
	}
}

func TestSimplexEquality(t *testing.T) {
	m := NewModel()
	x := m.AddContinuous("x", 0, 8)
	y := m.AddContinuous("y", 0, 8)
	m.AddEQ("sum", Sum(1, x, y), 10)
	m.SetObjective(Minimize, NewExpr(0).Add(x, 2).Add(y, 3))
	res := solveRelax(t, m)
	if res.status != lpOptimal {
		t.Fatalf("status = %v", res.status)
	}
	if math.Abs(res.obj-22) > 1e-6 { // x=8, y=2
		t.Errorf("obj = %g, want 22", res.obj)
	}
}

func TestSimplexNegativeLowerBound(t *testing.T) {
	m := NewModel()
	x := m.AddContinuous("x", -5, 5)
	m.AddGE("dummy", Sum(1, x), -100)
	m.SetObjective(Minimize, Sum(1, x))
	res := solveRelax(t, m)
	if res.status != lpOptimal || math.Abs(res.obj+5) > 1e-6 {
		t.Fatalf("status=%v obj=%g, want optimal -5", res.status, res.obj)
	}
}

func TestSimplexFreeVariable(t *testing.T) {
	m := NewModel()
	x := m.AddContinuous("x", math.Inf(-1), Inf)
	y := m.AddContinuous("y", 0, 4)
	m.AddEQ("c", Sum(1, x, y), 3)
	m.SetObjective(Minimize, NewExpr(0).Add(x, 1).Add(y, -2))
	// x = 3 - y; obj = 3 - 3y minimized at y=4: obj = -9, x = -1.
	res := solveRelax(t, m)
	if res.status != lpOptimal || math.Abs(res.obj+9) > 1e-6 {
		t.Fatalf("status=%v obj=%g, want optimal -9", res.status, res.obj)
	}
	if math.Abs(res.x[0]+1) > 1e-6 {
		t.Errorf("x = %g, want -1", res.x[0])
	}
}

func TestSimplexInfeasible(t *testing.T) {
	m := NewModel()
	x := m.AddContinuous("x", 0, Inf)
	m.AddGE("lo", Sum(1, x), 3)
	m.AddLE("hi", Sum(1, x), 1)
	m.SetObjective(Minimize, Sum(1, x))
	res := solveRelax(t, m)
	if res.status != lpInfeasible {
		t.Fatalf("status = %v, want infeasible", res.status)
	}
}

func TestSimplexUnbounded(t *testing.T) {
	m := NewModel()
	x := m.AddContinuous("x", 0, Inf)
	y := m.AddContinuous("y", 0, Inf)
	m.AddGE("c", NewExpr(0).Add(x, 1).Add(y, -1), 0)
	m.SetObjective(Maximize, Sum(1, x))
	res := solveRelax(t, m)
	if res.status != lpUnbounded {
		t.Fatalf("status = %v, want unbounded", res.status)
	}
}

func TestSimplexNoConstraints(t *testing.T) {
	m := NewModel()
	x := m.AddContinuous("x", 0, 1)
	y := m.AddContinuous("y", 0, 2)
	m.SetObjective(Maximize, Sum(1, x, y))
	res := solveRelax(t, m)
	if res.status != lpOptimal || math.Abs(res.obj-3) > 1e-6 {
		t.Fatalf("status=%v obj=%g, want optimal 3 (both at upper bound)", res.status, res.obj)
	}
}

func TestSimplexBoundFlip(t *testing.T) {
	// The optimum requires a nonbasic variable to flip from lower to upper
	// bound without entering the basis.
	m := NewModel()
	x := m.AddContinuous("x", 0, 10)
	y := m.AddContinuous("y", 0, 1)
	m.AddLE("cap", NewExpr(0).Add(x, 1).Add(y, 0.001), 5)
	m.SetObjective(Maximize, NewExpr(0).Add(x, 1).Add(y, 100))
	res := solveRelax(t, m)
	if res.status != lpOptimal {
		t.Fatalf("status = %v", res.status)
	}
	want := 100.0 + (5 - 0.001) // y=1, x=4.999
	if math.Abs(res.obj-want) > 1e-6 {
		t.Errorf("obj = %g, want %g", res.obj, want)
	}
}

func TestSimplexDegenerate(t *testing.T) {
	// Multiple constraints intersect at the optimum.
	m := NewModel()
	x := m.AddContinuous("x", 0, Inf)
	y := m.AddContinuous("y", 0, Inf)
	m.AddLE("c1", Sum(1, x, y), 2)
	m.AddLE("c2", NewExpr(0).Add(x, 1), 2)
	m.AddLE("c3", NewExpr(0).Add(y, 1), 2)
	m.AddLE("c4", NewExpr(0).Add(x, 2).Add(y, 2), 4)
	m.SetObjective(Maximize, Sum(1, x, y))
	res := solveRelax(t, m)
	if res.status != lpOptimal || math.Abs(res.obj-2) > 1e-6 {
		t.Fatalf("status=%v obj=%g, want optimal 2", res.status, res.obj)
	}
}

func TestSimplexLargerDense(t *testing.T) {
	// A transportation-style LP with a known optimum: 3 supplies, 4 demands.
	supply := []float64{20, 30, 25}
	demand := []float64{10, 25, 15, 25}
	cost := [][]float64{
		{2, 3, 1, 4},
		{5, 4, 8, 1},
		{9, 7, 3, 6},
	}
	m := NewModel()
	xs := make([][]VarID, 3)
	obj := NewExpr(0)
	for i := range xs {
		xs[i] = make([]VarID, 4)
		for j := range xs[i] {
			xs[i][j] = m.AddContinuous("x", 0, Inf)
			obj = obj.Add(xs[i][j], cost[i][j])
		}
	}
	for i, s := range supply {
		e := NewExpr(0)
		for j := range demand {
			e = e.Add(xs[i][j], 1)
		}
		m.AddLE("supply", e, s)
	}
	for j, d := range demand {
		e := NewExpr(0)
		for i := range supply {
			e = e.Add(xs[i][j], 1)
		}
		m.AddGE("demand", e, d)
	}
	m.SetObjective(Minimize, obj)
	res := solveRelax(t, m)
	if res.status != lpOptimal {
		t.Fatalf("status = %v", res.status)
	}
	// Cross-check the optimum against the value computed by hand with the
	// stepping-stone method: s1->(d1:10, d2:10), s2->(d2:5, d4:25),
	// s3->(d2:10, d3:15) for a total cost of 210.
	if math.Abs(res.obj-210) > 1e-5 {
		t.Errorf("obj = %g, want 210", res.obj)
	}
}

func TestExprHelpers(t *testing.T) {
	m := NewModel()
	x := m.AddContinuous("x", 0, 1)
	y := m.AddContinuous("y", 0, 1)
	e := NewExpr(2).Add(x, 1).AddExpr(Sum(3, y)).AddConst(1)
	if e.Const != 3 || len(e.Terms) != 2 {
		t.Errorf("expr = %+v", e)
	}
	vals := []float64{0.5, 2}
	if got := e.Eval(vals); math.Abs(got-(3+0.5+6)) > 1e-12 {
		t.Errorf("Eval = %g", got)
	}
}

func TestMergeTerms(t *testing.T) {
	m := NewModel()
	x := m.AddContinuous("x", 0, 1)
	y := m.AddContinuous("y", 0, 1)
	m.AddLE("c", NewExpr(0).Add(x, 1).Add(y, 2).Add(x, -1).Add(y, 1), 5)
	c := m.Cons[0]
	if len(c.Terms) != 1 || c.Terms[0].Var != y || c.Terms[0].Coef != 3 {
		t.Errorf("merged terms = %+v", c.Terms)
	}
}

func TestConstraintViolation(t *testing.T) {
	m := NewModel()
	x := m.AddContinuous("x", 0, 10)
	m.AddLE("le", Sum(1, x), 5)
	m.AddGE("ge", Sum(1, x), 2)
	m.AddEQ("eq", Sum(1, x), 3)
	xv := []float64{7.0}
	if v := m.Cons[0].Violation(xv); math.Abs(v-2) > 1e-12 {
		t.Errorf("LE violation = %g", v)
	}
	if v := m.Cons[1].Violation(xv); v != 0 {
		t.Errorf("GE violation = %g", v)
	}
	if v := m.Cons[2].Violation(xv); math.Abs(v-4) > 1e-12 {
		t.Errorf("EQ violation = %g", v)
	}
}

func TestCheckFeasible(t *testing.T) {
	m := NewModel()
	x := m.AddInteger("x", 0, 5)
	m.AddLE("c", Sum(1, x), 3)
	if err := m.CheckFeasible([]float64{2}, 1e-6); err != nil {
		t.Errorf("feasible point rejected: %v", err)
	}
	if err := m.CheckFeasible([]float64{2.5}, 1e-6); err == nil {
		t.Error("fractional integer accepted")
	}
	if err := m.CheckFeasible([]float64{4}, 1e-6); err == nil {
		t.Error("constraint violation accepted")
	}
	if err := m.CheckFeasible([]float64{6}, 1e-6); err == nil {
		t.Error("bound violation accepted")
	}
	if err := m.CheckFeasible([]float64{1, 2}, 1e-6); err == nil {
		t.Error("wrong-length assignment accepted")
	}
}
