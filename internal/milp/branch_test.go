package milp

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"
)

func mustSolve(t *testing.T, m *Model, p Params) *Solution {
	t.Helper()
	sol, err := Solve(m, p)
	if err != nil {
		t.Fatal(err)
	}
	return sol
}

func TestIntegerRounding(t *testing.T) {
	m := NewModel()
	x := m.AddInteger("x", 0, 100)
	m.AddLE("c", NewExpr(0).Add(x, 2), 7)
	m.SetObjective(Maximize, Sum(1, x))
	sol := mustSolve(t, m, Params{})
	if sol.Status != StatusOptimal || math.Abs(sol.Obj-3) > 1e-6 {
		t.Fatalf("status=%v obj=%g, want optimal 3", sol.Status, sol.Obj)
	}
}

func TestKnapsack(t *testing.T) {
	// Classic 0/1 knapsack: values 60,100,120; weights 10,20,30; cap 50.
	// Optimum: items 2+3 = 220.
	m := NewModel()
	vals := []float64{60, 100, 120}
	weights := []float64{10, 20, 30}
	var xs []VarID
	obj := NewExpr(0)
	wexpr := NewExpr(0)
	for i := range vals {
		x := m.AddBinary("x")
		xs = append(xs, x)
		obj = obj.Add(x, vals[i])
		wexpr = wexpr.Add(x, weights[i])
	}
	m.AddLE("cap", wexpr, 50)
	m.SetObjective(Maximize, obj)
	sol := mustSolve(t, m, Params{})
	if sol.Status != StatusOptimal || math.Abs(sol.Obj-220) > 1e-6 {
		t.Fatalf("status=%v obj=%g, want optimal 220", sol.Status, sol.Obj)
	}
	if sol.X[xs[0]] > 0.5 || sol.X[xs[1]] < 0.5 || sol.X[xs[2]] < 0.5 {
		t.Errorf("selection = %v, want items 2 and 3", sol.X)
	}
}

func TestIntegerInfeasible(t *testing.T) {
	m := NewModel()
	x := m.AddInteger("x", 0, 5)
	m.AddEQ("c", NewExpr(0).Add(x, 2), 3) // 2x = 3 has no integer solution
	m.SetObjective(Minimize, Sum(1, x))
	sol := mustSolve(t, m, Params{})
	if sol.Status != StatusInfeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
}

func TestAssignmentProblem(t *testing.T) {
	// 3x3 assignment, cost matrix with known optimum 5 (1+1+3... choose).
	cost := [][]float64{
		{4, 1, 3},
		{2, 0, 5},
		{3, 2, 2},
	}
	// Optimal: (0,1)+(1,0)+(2,2) = 1+2+2 = 5.
	m := NewModel()
	x := make([][]VarID, 3)
	obj := NewExpr(0)
	for i := range x {
		x[i] = make([]VarID, 3)
		for j := range x[i] {
			x[i][j] = m.AddBinary("x")
			obj = obj.Add(x[i][j], cost[i][j])
		}
	}
	for i := 0; i < 3; i++ {
		m.AddEQ("row", Sum(1, x[i][0], x[i][1], x[i][2]), 1)
		m.AddEQ("col", Sum(1, x[0][i], x[1][i], x[2][i]), 1)
	}
	m.SetObjective(Minimize, obj)
	sol := mustSolve(t, m, Params{})
	if sol.Status != StatusOptimal || math.Abs(sol.Obj-5) > 1e-6 {
		t.Fatalf("status=%v obj=%g, want optimal 5", sol.Status, sol.Obj)
	}
}

func TestObjectiveConstant(t *testing.T) {
	m := NewModel()
	x := m.AddInteger("x", 0, 10)
	m.AddGE("c", Sum(1, x), 2.5)
	m.SetObjective(Minimize, Sum(1, x).AddConst(100))
	sol := mustSolve(t, m, Params{})
	if sol.Status != StatusOptimal || math.Abs(sol.Obj-103) > 1e-6 {
		t.Fatalf("obj = %g, want 103", sol.Obj)
	}
}

func TestWarmStart(t *testing.T) {
	m := NewModel()
	x := m.AddInteger("x", 0, 10)
	y := m.AddInteger("y", 0, 10)
	m.AddLE("c", Sum(1, x, y), 7)
	m.SetObjective(Maximize, NewExpr(0).Add(x, 2).Add(y, 3))
	sol := mustSolve(t, m, Params{WarmStart: []float64{0, 7}})
	if sol.Status != StatusOptimal || math.Abs(sol.Obj-21) > 1e-6 {
		t.Fatalf("status=%v obj=%g, want optimal 21", sol.Status, sol.Obj)
	}
	// Infeasible warm start must be rejected with an error.
	if _, err := Solve(m, Params{WarmStart: []float64{10, 10}}); err == nil {
		t.Error("expected warm-start rejection")
	}
}

func TestMixedIntegerContinuous(t *testing.T) {
	// max 5x + 4y, 6x + 4y <= 24, x + 2y <= 6, x integer, y continuous.
	// LP optimum (3, 1.5); with x integer: x=3 -> y = min((24-18)/4, (6-3)/2) = 1.5.
	// obj = 15 + 6 = 21.
	m := NewModel()
	x := m.AddInteger("x", 0, Inf)
	y := m.AddContinuous("y", 0, Inf)
	m.AddLE("c1", NewExpr(0).Add(x, 6).Add(y, 4), 24)
	m.AddLE("c2", NewExpr(0).Add(x, 1).Add(y, 2), 6)
	m.SetObjective(Maximize, NewExpr(0).Add(x, 5).Add(y, 4))
	sol := mustSolve(t, m, Params{})
	if sol.Status != StatusOptimal || math.Abs(sol.Obj-21) > 1e-6 {
		t.Fatalf("status=%v obj=%g, want optimal 21", sol.Status, sol.Obj)
	}
}

func TestTimeLimitReturnsIncumbent(t *testing.T) {
	// A model large enough not to be solved instantly, with an immediate
	// warm start: the solver must return the incumbent with a Feasible (or
	// Optimal, if it got lucky) status, quickly.
	rng := rand.New(rand.NewSource(42))
	m := NewModel()
	n := 40
	var xs []VarID
	obj := NewExpr(0)
	for i := 0; i < n; i++ {
		x := m.AddBinary("x")
		xs = append(xs, x)
		obj = obj.Add(x, float64(rng.Intn(100)+1))
	}
	for c := 0; c < 30; c++ {
		e := NewExpr(0)
		for i := 0; i < n; i++ {
			e = e.Add(xs[i], float64(rng.Intn(20)))
		}
		m.AddLE("cap", e, float64(rng.Intn(100)+50))
	}
	m.SetObjective(Maximize, obj)
	ws := make([]float64, n) // all-zero is feasible
	start := time.Now()
	sol := mustSolve(t, m, Params{TimeLimit: 150 * time.Millisecond, WarmStart: ws})
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("time limit ignored: took %v", el)
	}
	if sol.X == nil {
		t.Fatal("expected an incumbent solution")
	}
	if sol.Status != StatusFeasible && sol.Status != StatusOptimal {
		t.Fatalf("status = %v", sol.Status)
	}
}

// TestLogOutput: the done: summary names the stop cause, none for a
// decided solve and limit for one cut short by MaxNodes.
func TestLogOutput(t *testing.T) {
	m := NewModel()
	x := m.AddInteger("x", 0, 10)
	y := m.AddInteger("y", 0, 10)
	m.AddLE("c", NewExpr(0).Add(x, 2).Add(y, 2), 7)
	m.SetObjective(Maximize, Sum(1, x, y))
	for _, tc := range []struct {
		maxNodes int
		want     string
	}{
		{0, "done: status=optimal stop=none "},
		{1, " stop=limit "},
	} {
		var buf bytes.Buffer
		mustSolve(t, m, Params{Log: &buf, MaxNodes: tc.maxNodes})
		if !strings.Contains(buf.String(), tc.want) {
			t.Errorf("MaxNodes %d: log output lacks %q: %q", tc.maxNodes, tc.want, buf.String())
		}
	}
}

func TestStatusString(t *testing.T) {
	for s, want := range map[Status]string{
		StatusOptimal: "optimal", StatusFeasible: "feasible", StatusInfeasible: "infeasible",
		StatusUnbounded: "unbounded", StatusNoSolution: "no-solution",
	} {
		if s.String() != want {
			t.Errorf("Status(%d).String() = %q, want %q", s, s.String(), want)
		}
	}
}

func TestUnboundedInteger(t *testing.T) {
	m := NewModel()
	x := m.AddInteger("x", 0, Inf)
	m.AddGE("c", Sum(1, x), 0)
	m.SetObjective(Maximize, Sum(1, x))
	sol := mustSolve(t, m, Params{})
	if sol.Status != StatusUnbounded {
		t.Fatalf("status = %v, want unbounded", sol.Status)
	}
}

// enumerate solves an all-integer model exhaustively.
func enumerate(m *Model) (best float64, found bool) {
	n := len(m.Vars)
	x := make([]float64, n)
	sign := 1.0
	if m.ObjSense == Maximize {
		sign = -1.0
	}
	best = math.Inf(1)
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			for _, c := range m.Cons {
				if c.Violation(x) > 1e-9 {
					return
				}
			}
			if v := sign * m.Obj.Eval(x); v < best {
				best, found = v, true
			}
			return
		}
		for v := m.Vars[i].Lo; v <= m.Vars[i].Hi; v++ {
			x[i] = v
			rec(i + 1)
		}
	}
	rec(0)
	return sign * best, found
}

// randomModel builds a small random all-integer program: 2..5 variables
// with domains up to [0,3], 1..4 mixed-sense constraints, and a random
// objective sense.
func randomModel(rng *rand.Rand) *Model {
	m := NewModel()
	nv := 2 + rng.Intn(4)
	for i := 0; i < nv; i++ {
		m.AddInteger("x", 0, float64(1+rng.Intn(3)))
	}
	nc := 1 + rng.Intn(4)
	for c := 0; c < nc; c++ {
		e := NewExpr(0)
		for i := 0; i < nv; i++ {
			e = e.Add(VarID(i), float64(rng.Intn(7)-3))
		}
		rhs := float64(rng.Intn(13) - 4)
		switch rng.Intn(3) {
		case 0:
			m.AddLE("c", e, rhs)
		case 1:
			m.AddGE("c", e, rhs)
		default:
			m.AddEQ("c", e, rhs)
		}
	}
	obj := NewExpr(0)
	for i := 0; i < nv; i++ {
		obj = obj.Add(VarID(i), float64(rng.Intn(11)-5))
	}
	sense := Minimize
	if rng.Intn(2) == 1 {
		sense = Maximize
	}
	m.SetObjective(sense, obj)
	return m
}

// TestRandomMILPvsEnumeration is the core correctness property of the whole
// solver stack: on random small all-integer programs, branch and bound must
// agree exactly with exhaustive enumeration.
func TestRandomMILPvsEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	trials := 200
	if testing.Short() {
		trials = 40
	}
	for trial := 0; trial < trials; trial++ {
		m := randomModel(rng)

		want, feasible := enumerate(m)
		sol, err := Solve(m, Params{TimeLimit: 10 * time.Second})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !feasible {
			if sol.Status != StatusInfeasible {
				t.Fatalf("trial %d: enumeration says infeasible, solver says %v", trial, sol.Status)
			}
			continue
		}
		if sol.Status != StatusOptimal {
			t.Fatalf("trial %d: status = %v, want optimal (enumerated obj %g)", trial, sol.Status, want)
		}
		if math.Abs(sol.Obj-want) > 1e-6 {
			t.Fatalf("trial %d: obj = %g, enumeration = %g", trial, sol.Obj, want)
		}
		if err := m.CheckFeasible(sol.X, 1e-6); err != nil {
			t.Fatalf("trial %d: solution infeasible: %v", trial, err)
		}
	}
}

// TestRandomLPFeasibility: on random LPs the returned point must satisfy
// all constraints, and the objective must not beat the LP bound obtained by
// any feasible integer point (sanity cross-check).
func TestRandomLPRelaxationDominatesInteger(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 60; trial++ {
		m := NewModel()
		nv := 2 + rng.Intn(3)
		for i := 0; i < nv; i++ {
			m.AddInteger("x", 0, 2)
		}
		for c := 0; c < 1+rng.Intn(3); c++ {
			e := NewExpr(0)
			for i := 0; i < nv; i++ {
				e = e.Add(VarID(i), float64(rng.Intn(5)-2))
			}
			m.AddLE("c", e, float64(rng.Intn(8)))
		}
		obj := NewExpr(0)
		for i := 0; i < nv; i++ {
			obj = obj.Add(VarID(i), float64(rng.Intn(9)-4))
		}
		m.SetObjective(Minimize, obj)

		lo := make([]float64, nv)
		hi := make([]float64, nv)
		for i, v := range m.Vars {
			lo[i], hi[i] = v.Lo, v.Hi
		}
		res := freshSolveLP(m, lo, hi, time.Time{})
		if res.status != lpOptimal {
			continue
		}
		// LP solution satisfies constraints and bounds.
		for _, c := range m.Cons {
			if c.Violation(res.x) > 1e-6 {
				t.Fatalf("trial %d: LP point violates %s", trial, c.Name)
			}
		}
		intObj, feasible := enumerate(m)
		if feasible && res.obj > intObj+1e-6 {
			t.Fatalf("trial %d: LP bound %g worse than integer optimum %g", trial, res.obj, intObj)
		}
	}
}

func TestPresolveSingletonAndInfeasible(t *testing.T) {
	m := NewModel()
	x := m.AddInteger("x", 0, 10)
	y := m.AddInteger("y", 0, 10)
	m.AddLE("x_hi", NewExpr(0).Add(x, 2), 7) // x <= 3 after rounding
	m.AddGE("y_lo", Sum(1, y), 4)
	lo := []float64{0, 0}
	hi := []float64{10, 10}
	if err := presolve(m, lo, hi); err != nil {
		t.Fatal(err)
	}
	if hi[0] != 3 {
		t.Errorf("x upper bound = %g, want 3", hi[0])
	}
	if lo[1] != 4 {
		t.Errorf("y lower bound = %g, want 4", lo[1])
	}
	// Crossing bounds detected.
	m2 := NewModel()
	z := m2.AddInteger("z", 0, 5)
	m2.AddGE("lo", Sum(1, z), 4)
	m2.AddLE("hi", Sum(1, z), 2)
	lo2, hi2 := []float64{0}, []float64{5}
	if err := presolve(m2, lo2, hi2); err == nil {
		t.Error("expected presolve infeasibility")
	}
	// Activity-based infeasibility.
	m3 := NewModel()
	a := m3.AddBinary("a")
	b := m3.AddBinary("b")
	m3.AddGE("sum", Sum(1, a, b), 3)
	lo3, hi3 := []float64{0, 0}, []float64{1, 1}
	if err := presolve(m3, lo3, hi3); err == nil {
		t.Error("expected activity infeasibility")
	}
}

func TestWriteLP(t *testing.T) {
	m := NewModel()
	x := m.AddBinary("pick(a)")
	y := m.AddInteger("count", 0, 7)
	z := m.AddContinuous("level", -1, Inf)
	m.AddLE("cap", NewExpr(0).Add(x, 2).Add(y, 1), 5)
	m.AddGE("min", NewExpr(0).Add(z, 1).Add(x, -1), 0)
	m.SetObjective(Maximize, NewExpr(0).Add(x, 3).Add(y, 1).AddConst(2))
	var buf bytes.Buffer
	if err := m.WriteLP(&buf); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	for _, want := range []string{"Maximize", "Subject To", "Bounds", "Binary", "General", "End", "pick_a_", "count"} {
		if !strings.Contains(s, want) {
			t.Errorf("LP output missing %q:\n%s", want, s)
		}
	}
}

// TestDenseEqualitySystem stresses phase 1 with an equality-only system
// whose unique solution is known: a small Leontief-style system.
func TestDenseEqualitySystem(t *testing.T) {
	// x + y + z = 6; x - y = 0; y - z = 1 -> x = y = 7/3, z = 4/3.
	m := NewModel()
	x := m.AddContinuous("x", 0, Inf)
	y := m.AddContinuous("y", 0, Inf)
	z := m.AddContinuous("z", 0, Inf)
	m.AddEQ("sum", Sum(1, x, y, z), 6)
	m.AddEQ("xy", NewExpr(0).Add(x, 1).Add(y, -1), 0)
	m.AddEQ("yz", NewExpr(0).Add(y, 1).Add(z, -1), 1)
	m.SetObjective(Minimize, Sum(1, x))
	sol := mustSolve(t, m, Params{})
	if sol.Status != StatusOptimal {
		t.Fatalf("status %v", sol.Status)
	}
	if math.Abs(sol.X[x]-7.0/3) > 1e-6 || math.Abs(sol.X[z]-4.0/3) > 1e-6 {
		t.Errorf("solution %v, want x=7/3 z=4/3", sol.X)
	}
}

// TestBranchPriorityHonored: with an extreme priority on one variable, the
// solver still reaches the optimum (priorities may never affect
// correctness, only the search path).
func TestBranchPriorityHonored(t *testing.T) {
	m := NewModel()
	x := m.AddInteger("x", 0, 10)
	y := m.AddInteger("y", 0, 10)
	m.AddLE("c", NewExpr(0).Add(x, 3).Add(y, 2), 13)
	m.SetObjective(Maximize, NewExpr(0).Add(x, 5).Add(y, 4))
	for _, prio := range [][]int{{10, 0}, {0, 10}, nil} {
		sol := mustSolve(t, m, Params{BranchPriority: prio})
		if sol.Status != StatusOptimal || math.Abs(sol.Obj-26) > 1e-6 { // x=1,y=5? 5+20=25; x=3,y=2: 15+8=23; x=1,y=5: 3+10=13 ok obj 25... compute below
			// Exhaustively verify the claimed optimum instead of trusting
			// the hand computation.
			want, _ := enumerate(m)
			if math.Abs(sol.Obj-want) > 1e-6 {
				t.Fatalf("prio %v: obj %g, enumerated %g", prio, sol.Obj, want)
			}
		}
	}
}

// TestLargeRandomLPStability: a 60x40 random LP must solve without
// numerical failure and satisfy its constraints.
func TestLargeRandomLPStability(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	m := NewModel()
	n := 40
	for i := 0; i < n; i++ {
		m.AddContinuous("x", 0, 10)
	}
	obj := NewExpr(0)
	for i := 0; i < n; i++ {
		obj = obj.Add(VarID(i), rng.Float64()*10-5)
	}
	for c := 0; c < 60; c++ {
		e := NewExpr(0)
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				e = e.Add(VarID(i), rng.Float64()*4-2)
			}
		}
		if len(e.Terms) == 0 {
			continue
		}
		m.AddLE("c", e, rng.Float64()*20)
	}
	m.SetObjective(Minimize, obj)
	sol := mustSolve(t, m, Params{TimeLimit: 30 * time.Second})
	if sol.Status != StatusOptimal && sol.Status != StatusUnbounded {
		t.Fatalf("status %v", sol.Status)
	}
	if sol.Status == StatusOptimal {
		if err := m.CheckFeasible(sol.X, 1e-5); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWarmStartAndLimits exercises the depth-first engine's warm-start
// pruning, MaxNodes, unbounded and infeasible paths.
func TestWarmStartAndLimits(t *testing.T) {
	t.Run("warm start pruning", func(t *testing.T) {
		m := NewModel()
		x := m.AddInteger("x", 0, 100)
		m.AddLE("c", NewExpr(0).Add(x, 2), 7)
		m.SetObjective(Maximize, Sum(1, x))
		sol := mustSolve(t, m, Params{WarmStart: []float64{3}})
		if sol.Status != StatusOptimal || math.Abs(sol.Obj-3) > 1e-6 {
			t.Fatalf("status=%v obj=%g, want optimal 3", sol.Status, sol.Obj)
		}
	})
	t.Run("max nodes", func(t *testing.T) {
		m := NewModel()
		n := 14
		e := NewExpr(0)
		for i := 0; i < n; i++ {
			v := m.AddBinary("b")
			e = e.Add(v, float64(3+i%5))
		}
		m.AddLE("cap", e, 17.5)
		m.SetObjective(Maximize, e)
		sol := mustSolve(t, m, Params{MaxNodes: 2})
		if sol.Nodes != 2 || sol.StopCause != StopLimit {
			t.Fatalf("nodes = %d, stop cause %v; want the limit to stop the search at 2", sol.Nodes, sol.StopCause)
		}
	})
	t.Run("unbounded", func(t *testing.T) {
		m := NewModel()
		x := m.AddContinuous("x", 0, Inf)
		m.SetObjective(Maximize, Sum(1, x))
		sol := mustSolve(t, m, Params{})
		if sol.Status != StatusUnbounded {
			t.Fatalf("status = %v, want unbounded", sol.Status)
		}
	})
	t.Run("infeasible", func(t *testing.T) {
		m := NewModel()
		x := m.AddInteger("x", 0, 10)
		m.AddGE("lo", NewExpr(0).Add(x, 2), 5)
		m.AddLE("hi", NewExpr(0).Add(x, 2), 4)
		sol := mustSolve(t, m, Params{})
		if sol.Status != StatusInfeasible {
			t.Fatalf("status = %v, want infeasible", sol.Status)
		}
	})
}

// TestRelGap pins the relative-gap convention on the minimization form:
// |inc - bound| / (1e-10 + |inc|), 0 once the bound meets the incumbent,
// +Inf with no incumbent or no bound. The previous max(1, |inc|)
// denominator understated the gap for every objective with |inc| < 1 —
// which includes all OBJ-DEL delay-ratio objectives — and for negative
// incumbents near zero.
func TestRelGap(t *testing.T) {
	cases := []struct {
		name       string
		inc, bound float64
		want       float64
	}{
		{"large incumbent", 10, 8, 0.2},
		{"sub-unit incumbent", 0.5, 0.25, 0.5},
		{"delay-ratio scale", 0.04, 0.02, 0.5},
		{"negative incumbent", -5, -5.5, 0.1},
		{"negative near zero", -0.01, -0.02, 1.0},
		{"zero incumbent", 0, -1, 1e10},
		{"bound met", 5, 5, 0},
		{"bound crossed numerically", 5, 5.0000001, 0},
		{"no incumbent", math.Inf(1), 3, math.Inf(1)},
		{"no bound", 3, math.Inf(-1), math.Inf(1)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := relGap(tc.inc, tc.bound)
			if math.IsInf(tc.want, 1) {
				if !math.IsInf(got, 1) {
					t.Fatalf("relGap(%g, %g) = %g, want +Inf", tc.inc, tc.bound, got)
				}
				return
			}
			// Normalize the tolerance for very large expected gaps (the
			// zero-incumbent case evaluates to diff/1e-10).
			scale := 1.0
			if tc.want > 1 {
				scale = tc.want
			}
			if math.Abs(got-tc.want)/scale > 1e-6 {
				t.Fatalf("relGap(%g, %g) = %g, want %g", tc.inc, tc.bound, got, tc.want)
			}
		})
	}
}

// TestGapReportedOnTrueScale is the end-to-end regression for the old
// max(1, |inc|) denominator: a sub-unit-objective model stopped at the
// node limit reports its true relative gap, not the small absolute one,
// and is not declared optimal.
func TestGapReportedOnTrueScale(t *testing.T) {
	m := NewModel()
	x := m.AddInteger("x", 0, 3)
	y := m.AddInteger("y", 0, 3)
	m.AddGE("c", NewExpr(0).Add(x, 2).Add(y, 2), 3)
	m.SetObjective(Minimize, NewExpr(0).Add(x, 0.3).Add(y, 0.31))
	// Warm start (3, 0): objective 0.9. Root LP gives x=1.5 (objective
	// 0.45), so after one node the bound is 0.45: true relative gap 0.5,
	// absolute gap 0.45.
	sol := mustSolve(t, m, Params{WarmStart: []float64{3, 0}, MaxNodes: 1})
	if sol.Status != StatusFeasible {
		t.Fatalf("status = %v, want feasible (gap %g)", sol.Status, sol.Gap)
	}
	if math.Abs(sol.Gap-0.5) > 1e-6 {
		t.Fatalf("gap = %g, want 0.5 (= 0.45/0.9)", sol.Gap)
	}
}
