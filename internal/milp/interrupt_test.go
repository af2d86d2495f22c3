package milp

import (
	"math/rand"
	"testing"
	"time"
)

// interruptModel builds a knapsack-style model large enough that the
// search does real work, so an interrupt lands mid-solve.
func interruptModel() (*Model, []float64) {
	rng := rand.New(rand.NewSource(7))
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
	return m, make([]float64, n) // all-zero warm start is feasible
}

// TestInterruptReturnsIncumbent: a pre-closed Interrupt channel stops
// both engines at their first node boundary — the depth-first loop head,
// and inside each FastSearch worker's per-node loop — and with a warm
// start the anytime incumbent comes back
// as StatusFeasible (or StatusOptimal if the root already proved it)
// instead of an error or no output.
func TestInterruptReturnsIncumbent(t *testing.T) {
	for _, tc := range []struct {
		workers int
		fast    bool
	}{{0, false}, {1, true}, {4, true}} {
		m, ws := interruptModel()
		stop := make(chan struct{})
		close(stop)
		sol, err := Solve(m, Params{Workers: tc.workers, FastSearch: tc.fast, WarmStart: ws, Interrupt: stop})
		if err != nil {
			t.Fatalf("workers=%d fast=%v: %v", tc.workers, tc.fast, err)
		}
		if sol.X == nil {
			t.Fatalf("workers=%d fast=%v: no incumbent after interrupt", tc.workers, tc.fast)
		}
		if sol.Status != StatusFeasible && sol.Status != StatusOptimal {
			t.Fatalf("workers=%d fast=%v: status = %v, want feasible/optimal anytime solution", tc.workers, tc.fast, sol.Status)
		}
		if sol.Status == StatusFeasible && sol.Gap <= 0 {
			t.Errorf("workers=%d fast=%v: interrupted solve reported gap %g, want positive", tc.workers, tc.fast, sol.Gap)
		}
		if sol.Status == StatusFeasible && sol.StopCause != StopInterrupt {
			t.Errorf("workers=%d fast=%v: StopCause = %v, want interrupt", tc.workers, tc.fast, sol.StopCause)
		}
	}
}

// TestStopCauseTaxonomy: both engines label WHY they stopped early — the
// letdmad retry/deadline policy keys off this, so the mapping is pinned:
// a closed Interrupt reports StopInterrupt, even when a TimeLimit expired
// in the same instant; an expired TimeLimit alone reports StopLimit; and a
// run to proven optimality reports StopNone.
func TestStopCauseTaxonomy(t *testing.T) {
	for _, tc := range []struct {
		workers int
		fast    bool
	}{{0, false}, {2, true}} {
		mi, ws := interruptModel()
		stop := make(chan struct{})
		close(stop)
		soli, err := Solve(mi, Params{Workers: tc.workers, FastSearch: tc.fast, WarmStart: ws,
			Interrupt: stop, TimeLimit: time.Nanosecond})
		if err != nil {
			t.Fatalf("workers=%d fast=%v: %v", tc.workers, tc.fast, err)
		}
		if soli.StopCause != StopInterrupt {
			t.Errorf("workers=%d fast=%v: interrupted and time-limited StopCause = %v, want interrupt",
				tc.workers, tc.fast, soli.StopCause)
		}

		m, ws := interruptModel()
		sol, err := Solve(m, Params{Workers: tc.workers, FastSearch: tc.fast, WarmStart: ws, TimeLimit: time.Nanosecond})
		if err != nil {
			t.Fatalf("workers=%d fast=%v: %v", tc.workers, tc.fast, err)
		}
		if sol.Status == StatusFeasible && sol.StopCause != StopLimit {
			t.Errorf("workers=%d fast=%v: time-limited StopCause = %v, want limit", tc.workers, tc.fast, sol.StopCause)
		}

		m2, _ := interruptModel()
		sol2, err := Solve(m2, Params{Workers: tc.workers, FastSearch: tc.fast})
		if err != nil {
			t.Fatalf("workers=%d fast=%v: %v", tc.workers, tc.fast, err)
		}
		if sol2.Status != StatusOptimal {
			t.Fatalf("workers=%d fast=%v: status = %v, want optimal", tc.workers, tc.fast, sol2.Status)
		}
		if sol2.StopCause != StopNone {
			t.Errorf("workers=%d fast=%v: decided solve StopCause = %v, want none", tc.workers, tc.fast, sol2.StopCause)
		}
	}
}

// TestNilInterruptIsIgnored: the default nil channel must not perturb
// a normal solve.
func TestNilInterruptIsIgnored(t *testing.T) {
	m := NewModel()
	x := m.AddInteger("x", 0, 10)
	y := m.AddInteger("y", 0, 10)
	m.AddLE("c", Sum(1, x, y), 7)
	m.SetObjective(Maximize, NewExpr(0).Add(x, 2).Add(y, 3))
	sol, err := Solve(m, Params{})
	if err != nil || sol.Status != StatusOptimal {
		t.Fatalf("status=%v err=%v, want optimal", sol.Status, err)
	}
}

// TestOpenInterruptDoesNotStop: an open (never-closed) channel leaves
// the solve untouched and it runs to optimality.
func TestOpenInterruptDoesNotStop(t *testing.T) {
	m := NewModel()
	x := m.AddInteger("x", 0, 10)
	m.AddGE("c", Sum(1, x), 3)
	m.SetObjective(Minimize, Sum(1, x))
	stop := make(chan struct{})
	defer close(stop)
	sol, err := Solve(m, Params{Interrupt: stop})
	if err != nil || sol.Status != StatusOptimal {
		t.Fatalf("status=%v err=%v, want optimal", sol.Status, err)
	}
}
