package milp_test

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"letdma/internal/milp"
	"letdma/internal/milptest"
)

// detReference solves the model with the sequential deterministic engine
// and returns the authoritative (status, objective).
func detReference(t *testing.T, m *milp.Model) *milp.Solution {
	t.Helper()
	sol, err := milp.Solve(m, milp.Params{TimeLimit: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	return sol
}

// requireSameOptimum holds a FastSearch result to the deterministic
// reference: identical status, and on decided instances the identical
// optimal objective (1e-9 relative) with a feasibility-checked incumbent.
// The incumbent VECTOR may differ — FastSearch returns whichever of several
// tied optima it reaches first — which is exactly why the contract is
// objective equality, not trajectory equality.
func requireSameOptimum(t *testing.T, label string, m *milp.Model, ref, fast *milp.Solution) {
	t.Helper()
	if fast.Status != ref.Status {
		t.Fatalf("%s: status %v, deterministic reference %v", label, fast.Status, ref.Status)
	}
	if ref.Status != milp.StatusOptimal {
		return
	}
	if math.Abs(fast.Obj-ref.Obj) > 1e-9*(1+math.Abs(ref.Obj)) {
		t.Fatalf("%s: obj %.17g, deterministic reference %.17g", label, fast.Obj, ref.Obj)
	}
	if err := m.CheckFeasible(fast.X, 1e-6); err != nil {
		t.Fatalf("%s: FastSearch incumbent infeasible: %v", label, err)
	}
}

// TestFastSearchWorkerInvariance is the headline FastSearch regression:
// over 32 seeded instances, the engine must return the SAME optimal
// objective as the deterministic engine at EVERY worker count. This is a
// statistical invariance — each (seed, workers) run takes its own
// nondeterministic path through the tree — so what it pins is the exactness
// contract (pruning arithmetic, warm-expand soundness, incumbent CAS
// monotonicity), not any particular schedule.
func TestFastSearchWorkerInvariance(t *testing.T) {
	for seed := int64(0); seed < 32; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		m := milptest.RandomModel(rng)
		ref := detReference(t, m)
		for _, workers := range []int{1, 2, 3, 8} {
			fast, err := milp.Solve(m, milp.Params{
				FastSearch: true, Workers: workers, TimeLimit: 30 * time.Second,
			})
			if err != nil {
				t.Fatalf("seed=%d workers=%d: %v", seed, workers, err)
			}
			requireSameOptimum(t, fmt.Sprintf("seed=%d workers=%d", seed, workers), m, ref, fast)
		}
	}
}

// symmetricTieModel builds a FastSearch stress instance: k identical items
// per group make the branch-and-bound tree deeply symmetric, with many
// relaxation bounds tied to within the integer step. Near-ties are the
// adversarial case for a nondeterministic search — racing workers publish
// equal-objective incumbents concurrently and the steal heuristic keeps
// redistributing equally-promising subtrees — so this is where the CAS
// protocol and the deque discipline see real contention.
func symmetricTieModel(groups, per int) *milp.Model {
	m := milp.NewModel()
	cap := milp.NewExpr(0)
	obj := milp.NewExpr(0)
	for g := 0; g < groups; g++ {
		for i := 0; i < per; i++ {
			b := m.AddBinary(fmt.Sprintf("g%d", g))
			cap = cap.Add(b, float64(2+g))
			obj = obj.Add(b, float64(3+g))
		}
	}
	// Fractional capacity (just under half the total weight) keeps the
	// relaxation fractional at the root and down many levels, so the tree
	// is deep and symmetric instead of solved at the root.
	total := 0
	for g := 0; g < groups; g++ {
		total += per * (2 + g)
	}
	m.AddLE("cap", cap, float64(total)/2+0.5)
	m.SetObjective(milp.Maximize, obj)
	return m
}

// TestFastSearchRaceStress is the race-detector workout for the
// work-stealing deques and the incumbent CAS: a GOMAXPROCS sweep over
// random models at 8 workers plus a tie-heavy symmetric instance at 16
// workers. It asserts objective correctness too, but its real job is to
// give `go test -race` enough concurrent pushes, steals and publications to
// catch any unsynchronized access.
func TestFastSearchRaceStress(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	sweep := []int{1, 2, prev}
	if prev <= 2 {
		sweep = []int{1, 2, 4}
	}
	for _, gmp := range sweep {
		gmp := gmp
		t.Run(fmt.Sprintf("gomaxprocs=%d", gmp), func(t *testing.T) {
			runtime.GOMAXPROCS(gmp)
			defer runtime.GOMAXPROCS(prev)
			rng := rand.New(rand.NewSource(4242))
			trials := 20
			if testing.Short() {
				trials = 6
			}
			for trial := 0; trial < trials; trial++ {
				m := milptest.RandomModel(rng)
				ref := detReference(t, m)
				fast, err := milp.Solve(m, milp.Params{
					FastSearch: true, Workers: 8, TimeLimit: 30 * time.Second,
				})
				if err != nil {
					t.Fatalf("trial=%d: %v", trial, err)
				}
				requireSameOptimum(t, fmt.Sprintf("trial=%d", trial), m, ref, fast)
			}

			m := symmetricTieModel(3, 6)
			ref := detReference(t, m)
			fast, err := milp.Solve(m, milp.Params{
				FastSearch: true, Workers: 16, TimeLimit: 30 * time.Second,
			})
			if err != nil {
				t.Fatal(err)
			}
			requireSameOptimum(t, "symmetric", m, ref, fast)
		})
	}
}

// TestFastSearchWorkspaces runs FastSearch at 4 workers over the corpus and
// a tie-heavy instance. Every worker solves its nodes in its own workspace
// against the one LP template the search shares, so under `go test -race`
// this catches a write to the template or a workspace used by two workers.
// It also holds each result to the deterministic optimum.
func TestFastSearchWorkspaces(t *testing.T) {
	models := []*milp.Model{symmetricTieModel(3, 6)}
	for _, c := range milptest.Corpus() {
		models = append(models, c.M)
	}
	for i, m := range models {
		ref := detReference(t, m)
		fast, err := milp.Solve(m, milp.Params{FastSearch: true, Workers: 4, TimeLimit: 30 * time.Second})
		if err != nil {
			t.Fatalf("model %d: %v", i, err)
		}
		requireSameOptimum(t, fmt.Sprintf("model %d", i), m, ref, fast)
	}
}

// TestFastSearchEdgeCases covers the engine's terminal paths: unbounded
// relaxations, infeasible boxes, pure LPs, warm-start pruning, node limits
// with an anytime incumbent, and gap-tolerance early stops.
func TestFastSearchEdgeCases(t *testing.T) {
	t.Run("unbounded", func(t *testing.T) {
		m := milp.NewModel()
		x := m.AddContinuous("x", 0, milp.Inf)
		m.SetObjective(milp.Maximize, milp.Sum(1, x))
		sol, err := milp.Solve(m, milp.Params{FastSearch: true, Workers: 2})
		if err != nil || sol.Status != milp.StatusUnbounded {
			t.Fatalf("status=%v err=%v, want unbounded", sol.Status, err)
		}
	})
	t.Run("infeasible", func(t *testing.T) {
		m := milp.NewModel()
		x := m.AddInteger("x", 0, 10)
		m.AddGE("lo", milp.NewExpr(0).Add(x, 2), 5)
		m.AddLE("hi", milp.NewExpr(0).Add(x, 2), 4)
		sol, err := milp.Solve(m, milp.Params{FastSearch: true, Workers: 2})
		if err != nil || sol.Status != milp.StatusInfeasible {
			t.Fatalf("status=%v err=%v, want infeasible", sol.Status, err)
		}
	})
	t.Run("pure LP", func(t *testing.T) {
		// The transport instance: continuous, known optimum 210.
		corpus := milptest.Corpus()
		var m *milp.Model
		for _, c := range corpus {
			if c.Name == "transport" {
				m = c.M
			}
		}
		sol, err := milp.Solve(m, milp.Params{FastSearch: true, Workers: 4})
		if err != nil || sol.Status != milp.StatusOptimal || math.Abs(sol.Obj-210) > 1e-6 {
			t.Fatalf("status=%v obj=%g err=%v, want optimal 210", sol.Status, sol.Obj, err)
		}
	})
	t.Run("warm start", func(t *testing.T) {
		m := milp.NewModel()
		x := m.AddInteger("x", 0, 100)
		m.AddLE("c", milp.NewExpr(0).Add(x, 2), 7)
		m.SetObjective(milp.Maximize, milp.Sum(1, x))
		sol, err := milp.Solve(m, milp.Params{FastSearch: true, Workers: 4, WarmStart: []float64{3}})
		if err != nil || sol.Status != milp.StatusOptimal || math.Abs(sol.Obj-3) > 1e-6 {
			t.Fatalf("status=%v obj=%g err=%v, want optimal 3", sol.Status, sol.Obj, err)
		}
	})
	t.Run("max nodes anytime", func(t *testing.T) {
		m := symmetricTieModel(4, 5)
		ws := make([]float64, 20) // all-zero is feasible
		sol, err := milp.Solve(m, milp.Params{
			FastSearch: true, Workers: 2, MaxNodes: 1, WarmStart: ws,
		})
		if err != nil {
			t.Fatal(err)
		}
		if sol.X == nil {
			t.Fatal("no anytime incumbent at the node limit")
		}
		if sol.Status == milp.StatusFeasible && sol.Gap <= 0 {
			t.Errorf("limited solve reported gap %g, want positive", sol.Gap)
		}
	})
	t.Run("stats plausible", func(t *testing.T) {
		m := symmetricTieModel(3, 6)
		sol, err := milp.Solve(m, milp.Params{FastSearch: true, Workers: 8})
		if err != nil || sol.Status != milp.StatusOptimal {
			t.Fatalf("status=%v err=%v, want optimal", sol.Status, err)
		}
		k := sol.Kernel
		if k.WarmExpands == 0 && k.ColdSolves <= 1 {
			t.Errorf("implausible kernel stats: %+v", k)
		}
		if k.WarmAttempts < k.WarmHits+k.WarmExpands {
			t.Errorf("warm accounting broken: attempts=%d hits=%d expands=%d",
				k.WarmAttempts, k.WarmHits, k.WarmExpands)
		}
	})
}
