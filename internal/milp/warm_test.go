package milp

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// replayScrub zeroes the one field allowed to differ between two runs of
// the same deterministic solve: wall-clock time. Everything else — status,
// incumbent, objective, bound, node and iteration counts, kernel counters
// and the root basis — must replay bit-identically.
func replayScrub(sol *Solution) *Solution {
	c := *sol
	c.Runtime = 0
	return &c
}

// decided reports whether a solve ran to a decision, so that its status and
// objective are a property of the model rather than of the search path.
func decided(s Status) bool {
	return s == StatusOptimal || s == StatusInfeasible || s == StatusUnbounded
}

// warmColdContract checks one model under params p for every deterministic
// engine (Workers 0, 1 and 4) and returns the warm expansions it saw:
//
//   - the cold path (DisableWarmStart) never touches the warm solver;
//   - warm and cold agree bit-for-bit on the objective, and on the status,
//     whenever both decided (a node or time limit may cut the two
//     trajectories at different incumbents);
//   - the warm solve replays bit-identically run to run, and the epoch
//     engine's warm trajectory is the same for 1 and 4 workers.
func warmColdContract(t *testing.T, label string, m *Model, p Params) int {
	t.Helper()
	expands := 0
	var epoch *Solution
	for _, workers := range []int{0, 1, 4} {
		pw := p
		pw.Workers = workers
		pc := pw
		pc.DisableWarmStart = true
		cold := mustSolve(t, m, pc)
		warm := mustSolve(t, m, pw)
		if k := cold.Kernel; k.WarmAttempts != 0 || k.WarmExpands != 0 {
			t.Fatalf("%s workers %d: DisableWarmStart still solved warm: %+v", label, workers, k)
		}
		if k := warm.Kernel; k.WarmHits+k.WarmExpands+k.ColdFallbacks > k.WarmAttempts {
			t.Fatalf("%s workers %d: inconsistent kernel counters %+v", label, workers, k)
		}
		expands += warm.Kernel.WarmExpands
		if decided(cold.Status) && decided(warm.Status) {
			if cold.Status != warm.Status || math.Float64bits(cold.Obj) != math.Float64bits(warm.Obj) {
				t.Fatalf("%s workers %d: warm %v/%v, cold %v/%v",
					label, workers, warm.Status, warm.Obj, cold.Status, cold.Obj)
			}
		}
		again := mustSolve(t, m, pw)
		if !reflect.DeepEqual(replayScrub(warm), replayScrub(again)) {
			t.Fatalf("%s workers %d: warm solve does not replay:\nfirst  %+v\nsecond %+v",
				label, workers, warm, again)
		}
		if workers == 0 {
			continue
		}
		if epoch == nil {
			epoch = warm
		} else if !reflect.DeepEqual(replayScrub(epoch), replayScrub(warm)) {
			t.Fatalf("%s: epoch trajectory depends on the worker count:\n1 worker  %+v\n%d workers %+v",
				label, epoch, workers, warm)
		}
	}
	return expands
}

// TestWarmColdEquivalence is the contract of the warm-expanded search on the
// random-model corpus: warm and cold solves reach the same status and
// objective, and the warm trajectory replays bit-identically run to run and
// across worker counts (see warmColdContract).
func TestWarmColdEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	trials := 200
	if testing.Short() {
		trials = 50
	}
	expands := 0
	for trial := 0; trial < trials; trial++ {
		m := randomModel(rng)
		expands += warmColdContract(t, fmt.Sprintf("trial %d", trial), m, Params{TimeLimit: 10 * time.Second})
	}
	// The corpus must actually exercise the warm path, or the contract
	// above is vacuous.
	if expands == 0 {
		t.Fatal("no warm expansions across the whole corpus; every node fell back to the cold path")
	}
}

// TestWarmStartWithIncumbentEquivalence repeats the contract in the
// configuration the production solvers use: a feasible warm-start incumbent
// plus a node limit. The incumbent makes cutoff fathoming available from the
// first child on, and the node limit pins where a truncated search stops, so
// its replay is exact too.
func TestWarmStartWithIncumbentEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	trials := 120
	if testing.Short() {
		trials = 30
	}
	expands := 0
	for trial := 0; trial < trials; trial++ {
		m := randomModel(rng)
		// Find any feasible point to use as the incumbent.
		probe := mustSolve(t, m, Params{DisableWarmStart: true, TimeLimit: 10 * time.Second})
		if probe.X == nil {
			continue
		}
		p := Params{WarmStart: probe.X, MaxNodes: 64, TimeLimit: 10 * time.Second}
		expands += warmColdContract(t, fmt.Sprintf("trial %d", trial), m, p)
	}
	if expands == 0 {
		t.Fatal("no warm expansions across the whole corpus; every node fell back to the cold path")
	}
}

// TestRootBasisRoundTrip feeds Solution.RootBasis back through
// Params.WarmBasis: the re-solve must validate the basis, produce the same
// answer, and actually attempt a probe at the root.
func TestRootBasisRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 40; trial++ {
		m := randomModel(rng)
		first := mustSolve(t, m, Params{TimeLimit: 10 * time.Second})
		if first.RootBasis == nil {
			continue
		}
		for _, workers := range []int{0, 2} {
			again := mustSolve(t, m, Params{Workers: workers, WarmBasis: first.RootBasis, TimeLimit: 10 * time.Second})
			if again.Kernel.WarmAttempts == 0 {
				t.Fatalf("trial %d workers %d: WarmBasis accepted but never probed", trial, workers)
			}
			if again.Status != first.Status || math.Abs(again.Obj-first.Obj) > 1e-9 {
				t.Fatalf("trial %d workers %d: re-solve with RootBasis diverged: %v/%g vs %v/%g",
					trial, workers, again.Status, again.Obj, first.Status, first.Obj)
			}
		}
	}
}

// TestWarmBasisRejected pins the validation errors for malformed bases.
func TestWarmBasisRejected(t *testing.T) {
	m := NewModel()
	x := m.AddInteger("x", 0, 10)
	m.AddLE("c", NewExpr(0).Add(x, 1), 7)
	m.SetObjective(Maximize, Sum(1, x))

	cases := []struct {
		name  string
		basis *Basis
	}{
		{"wrong shape", &Basis{Cols: []int32{0}, States: []int8{stBasic}, ArtSign: []int8{1}}},
		{"column out of range", &Basis{Cols: []int32{9}, States: []int8{stLower, stBasic, stLower}, ArtSign: []int8{1}}},
		{"state not basic", &Basis{Cols: []int32{1}, States: []int8{stLower, stLower, stLower}, ArtSign: []int8{1}}},
		{"invalid art sign", &Basis{Cols: []int32{1}, States: []int8{stLower, stBasic, stLower}, ArtSign: []int8{0}}},
		{"basic not in basis", &Basis{Cols: []int32{1}, States: []int8{stBasic, stBasic, stLower}, ArtSign: []int8{1}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Solve(m, Params{WarmBasis: tc.basis}); err == nil {
				t.Fatal("malformed warm basis accepted")
			}
		})
	}

	// A valid basis (from a solve) must be accepted by both engines.
	first := mustSolve(t, m, Params{})
	if first.RootBasis == nil {
		t.Fatal("no root basis on an optimal solve")
	}
	if _, err := Solve(m, Params{WarmBasis: first.RootBasis, Workers: 2}); err != nil {
		t.Fatalf("valid warm basis rejected: %v", err)
	}
}

// TestObjIntegerStepHugeCoefficient is the regression test for the
// unguarded float64 -> int64 conversion: coefficients above 2^53 (still
// exactly integral as float64) must disable gcd bound rounding entirely,
// because the conversion can silently produce a wrong — typically too
// large — step, and roundBoundUp would then prune nodes containing the
// optimum. Example: {4096, 2^63+2048} has true gcd 2048, but on amd64 the
// out-of-range conversion of 2^63+2048 yields math.MinInt64 and the
// computed "gcd" came out 4096.
func TestObjIntegerStepHugeCoefficient(t *testing.T) {
	build := func(coefs ...float64) *Model {
		m := NewModel()
		e := NewExpr(0)
		for _, c := range coefs {
			v := m.AddInteger("x", 0, 10)
			e = e.Add(v, c)
		}
		m.SetObjective(Minimize, e)
		return m
	}
	huge := math.Ldexp(1, 63) + 2048 // 2^63 + 2048, exactly representable
	if !isIntegral(huge) {
		t.Fatal("test coefficient must pass the integrality check")
	}
	cases := []struct {
		name  string
		coefs []float64
		want  float64
	}{
		{"beyond int64 range", []float64{4096, huge}, 0},
		{"beyond 2^53 contiguity", []float64{2, math.Ldexp(1, 53) + 2}, 0},
		{"at 2^53 still exact", []float64{math.Ldexp(1, 53), math.Ldexp(1, 52)}, math.Ldexp(1, 52)},
		{"small sane gcd", []float64{6, 10}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := objIntegerStep(build(tc.coefs...), 1)
			//letvet:floateq objIntegerStep returns exact representable integers or 0 by contract
			if got != tc.want {
				t.Fatalf("objIntegerStep = %g, want %g", got, tc.want)
			}
		})
	}
}
