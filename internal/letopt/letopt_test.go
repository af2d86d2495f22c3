package letopt

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"letdma/internal/combopt"
	"letdma/internal/dma"
	"letdma/internal/let"
	"letdma/internal/milp"
	"letdma/internal/model"
	"letdma/internal/ordered"
	"letdma/internal/rta"
	"letdma/internal/sysgen"
	"letdma/internal/timeutil"
)

func ms(v int64) timeutil.Time { return timeutil.Milliseconds(v) }

func pairSystem(t *testing.T) *let.Analysis {
	t.Helper()
	sys := model.NewSystem(2)
	p1 := sys.MustAddTask("p1", ms(10), timeutil.Millisecond, 0)
	p2 := sys.MustAddTask("p2", ms(10), timeutil.Millisecond, 0)
	c := sys.MustAddTask("c", ms(10), timeutil.Millisecond, 1)
	sys.MustAddLabel("l1", 100, p1, c)
	sys.MustAddLabel("l2", 200, p2, c)
	sys.AssignRateMonotonicPriorities()
	a, err := let.Analyze(sys)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func chainSystem(t *testing.T) *let.Analysis {
	t.Helper()
	sys := model.NewSystem(2)
	prod := sys.MustAddTask("prod", ms(5), timeutil.Millisecond, 0)
	fast := sys.MustAddTask("fast", ms(10), timeutil.Millisecond, 1)
	slow := sys.MustAddTask("slow", ms(20), timeutil.Millisecond, 1)
	sys.MustAddLabel("lA", 64, prod, fast, slow)
	sys.MustAddLabel("lB", 32, fast, prod)
	sys.AssignRateMonotonicPriorities()
	a, err := let.Analyze(sys)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func nestedSystem(t *testing.T) *let.Analysis {
	t.Helper()
	sys := model.NewSystem(2)
	p1 := sys.MustAddTask("p1", ms(10), timeutil.Millisecond, 0)
	p2 := sys.MustAddTask("p2", ms(20), timeutil.Millisecond, 0)
	c := sys.MustAddTask("c", ms(5), timeutil.Millisecond, 1)
	sys.MustAddLabel("l1", 128, p1, c)
	sys.MustAddLabel("l2", 64, p2, c)
	sys.AssignRateMonotonicPriorities()
	a, err := let.Analyze(sys)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func solverParams() milp.Params {
	return milp.Params{TimeLimit: 60 * time.Second}
}

func TestPairMinTransfers(t *testing.T) {
	a := pairSystem(t)
	cm := dma.DefaultCostModel()
	res, err := Solve(a, cm, nil, dma.MinTransfers, Options{MILP: solverParams()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != milp.StatusOptimal {
		t.Fatalf("status = %v (gap %.3g after %v)", res.Status, res.Gap, res.Runtime)
	}
	if res.Sched.NumTransfers() != 2 {
		t.Errorf("transfers = %d, want 2 (grouped writes + grouped reads)", res.Sched.NumTransfers())
	}
	if res.Objective != 2 {
		t.Errorf("maxRGI = %g, want 2", res.Objective)
	}
}

func TestChainNoObjective(t *testing.T) {
	a := chainSystem(t)
	cm := dma.DefaultCostModel()
	res, err := Solve(a, cm, nil, dma.NoObjective, Options{MILP: solverParams()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != milp.StatusOptimal {
		t.Fatalf("status = %v", res.Status)
	}
	if res.Layout == nil || res.Sched == nil {
		t.Fatal("expected a decoded solution")
	}
	// Already validated inside Solve; re-validate for paranoia.
	if err := dma.Validate(a, cm, res.Layout, res.Sched, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNestedSubsetContiguity(t *testing.T) {
	// The optimal grouping for the nested system needs the onion layout at
	// t = 10ms (only l1 active): the MILP must find 2 transfers and the
	// validator must accept them at every activation pattern.
	a := nestedSystem(t)
	cm := dma.DefaultCostModel()
	res, err := Solve(a, cm, nil, dma.MinTransfers, Options{MILP: solverParams()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != milp.StatusOptimal {
		t.Fatalf("status = %v", res.Status)
	}
	if res.Sched.NumTransfers() != 2 {
		t.Errorf("transfers = %d, want 2 (chain-merged)", res.Sched.NumTransfers())
	}
}

func TestWarmStartFromCombopt(t *testing.T) {
	// The combinatorial solution must be accepted verbatim as a MILP warm
	// start: this cross-validates the whole formulation against the
	// independent constructive solver.
	for _, build := range []func(*testing.T) *let.Analysis{pairSystem, chainSystem, nestedSystem} {
		a := build(t)
		cm := dma.DefaultCostModel()
		comb, err := combopt.Solve(a, cm, nil, dma.MinDelayRatio)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Solve(a, cm, nil, dma.MinDelayRatio, Options{
			MILP:       solverParams(),
			WarmLayout: comb.Layout,
			WarmSched:  comb.Sched,
		})
		if err != nil {
			t.Fatalf("warm-started solve failed: %v", err)
		}
		if res.Status != milp.StatusOptimal && res.Status != milp.StatusFeasible {
			t.Fatalf("status = %v", res.Status)
		}
		// The MILP optimum cannot be worse than the warm start.
		if res.Objective > comb.Objective+1e-9 {
			t.Errorf("MILP objective %g worse than warm start %g", res.Objective, comb.Objective)
		}
	}
}

func TestChainDelayRatioBeatsGiotto(t *testing.T) {
	a := chainSystem(t)
	cm := dma.DefaultCostModel()
	res, err := Solve(a, cm, nil, dma.MinDelayRatio, Options{MILP: solverParams()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != milp.StatusOptimal {
		t.Fatalf("status = %v", res.Status)
	}
	got := dma.MaxLatencyRatio(a, cm, res.Sched, dma.PerTaskReadiness)
	giotto := dma.MaxLatencyRatio(a, cm, dma.GiottoPerCommSchedule(a), dma.AfterAllReadiness)
	if got > giotto {
		t.Errorf("optimized ratio %g not better than Giotto %g", got, giotto)
	}
	// The MILP objective must match the recomputed ratio of the decoded
	// schedule (both use the Constraint-9 accumulation).
	if diff := res.Objective - got; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("MILP objective %g != recomputed ratio %g", res.Objective, got)
	}
}

func TestInfeasibleDeadline(t *testing.T) {
	a := pairSystem(t)
	cm := dma.DefaultCostModel()
	gamma := dma.Deadlines{a.Sys.TaskByName("c").ID: timeutil.Microsecond}
	res, err := Solve(a, cm, gamma, dma.NoObjective, Options{MILP: solverParams()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != milp.StatusInfeasible {
		t.Fatalf("status = %v, want infeasible", res.Status)
	}
}

func TestGapSanityShortCircuit(t *testing.T) {
	sys := model.NewSystem(2)
	x := sys.MustAddTask("x", timeutil.Microseconds(20), 0, 0)
	y := sys.MustAddTask("y", timeutil.Microseconds(20), 0, 1)
	sys.MustAddLabel("l", 1<<20, x, y) // 1 MiB in a 20us period: hopeless
	sys.AssignRateMonotonicPriorities()
	a, err := let.Analyze(sys)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	res, err := Solve(a, dma.DefaultCostModel(), nil, dma.NoObjective, Options{MILP: solverParams()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != milp.StatusInfeasible {
		t.Fatalf("status = %v, want infeasible", res.Status)
	}
	if time.Since(start) > 5*time.Second {
		t.Error("gap sanity check did not short-circuit")
	}
}

// TestCapacityShortCircuit pins the Section III-A capacity gate: the
// formulation places every required object unconditionally, so a memory one
// byte too small for its required label copies must yield StatusInfeasible
// up front — not an "optimal" layout that dma.Validate then rejects.
func TestCapacityShortCircuit(t *testing.T) {
	build := func() (*let.Analysis, *model.System) {
		sys := model.NewSystem(2)
		p1 := sys.MustAddTask("p1", ms(10), timeutil.Millisecond, 0)
		p2 := sys.MustAddTask("p2", ms(10), timeutil.Millisecond, 0)
		c := sys.MustAddTask("c", ms(10), timeutil.Millisecond, 1)
		sys.MustAddLabel("l1", 100, p1, c)
		sys.MustAddLabel("l2", 200, p2, c)
		sys.AssignRateMonotonicPriorities()
		a, err := let.Analyze(sys)
		if err != nil {
			t.Fatal(err)
		}
		return a, sys
	}
	a, sys := build()
	cm := dma.DefaultCostModel()
	req := dma.RequiredObjects(a)
	for _, mem := range ordered.Keys(req) {
		objs := req[mem]
		var need int64
		for _, o := range objs {
			need += sys.Label(o.Label).Size
		}
		sys.SetMemoryCapacity(mem, need-1)
		res, err := Solve(a, cm, nil, dma.NoObjective, Options{MILP: solverParams()})
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != milp.StatusInfeasible {
			t.Fatalf("memory %d one byte short: status = %v, want infeasible", mem, res.Status)
		}
		sys.SetMemoryCapacity(mem, need)
	}
	// With every capacity at the exact requirement the instance is feasible
	// again, and the solution passes the validator's capacity check.
	res, err := Solve(a, cm, nil, dma.NoObjective, Options{MILP: solverParams()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sched == nil {
		t.Fatalf("exact capacities: status = %v, want a solution", res.Status)
	}
}

func TestSlotsCapRestrictsModel(t *testing.T) {
	a := chainSystem(t)
	cm := dma.DefaultCostModel()
	v1, c1, err := ModelSize(a, cm, nil, dma.NoObjective, 0)
	if err != nil {
		t.Fatal(err)
	}
	v2, c2, err := ModelSize(a, cm, nil, dma.NoObjective, 5)
	if err != nil {
		t.Fatal(err)
	}
	if v1 != v2 || c1 != c2 {
		t.Errorf("slots=0 should default to |C(s0)|=5: (%d,%d) vs (%d,%d)", v1, c1, v2, c2)
	}
	v3, _, err := ModelSize(a, cm, nil, dma.NoObjective, 3)
	if err != nil {
		t.Fatal(err)
	}
	if v3 >= v1 {
		t.Errorf("capping slots should shrink the model: %d vs %d vars", v3, v1)
	}
}

func TestWriteLPSmoke(t *testing.T) {
	a := pairSystem(t)
	var buf bytes.Buffer
	if err := WriteLP(&buf, a, dma.DefaultCostModel(), nil, dma.MinDelayRatio, 0); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	for _, want := range []string{"Minimize", "CG_0_1_", "Subject To", "Binary"} {
		if !strings.Contains(s, want) {
			t.Errorf("LP dump missing %q", want)
		}
	}
}

func TestTightDeadlineForcesEarlyRead(t *testing.T) {
	// gamma(fast) only allows fast's communications among the first
	// transfers; the solver must honor it and the validator agrees.
	a := chainSystem(t)
	cm := dma.DefaultCostModel()
	fast := a.Sys.TaskByName("fast").ID
	gamma := dma.Deadlines{fast: timeutil.Microseconds(45)}
	res, err := Solve(a, cm, gamma, dma.NoObjective, Options{MILP: solverParams()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != milp.StatusOptimal {
		t.Fatalf("status = %v", res.Status)
	}
	lam := dma.Latency(a, cm, res.Sched, 0, fast, dma.PerTaskReadiness)
	if lam > timeutil.Microseconds(45) {
		t.Errorf("lambda(fast) = %v exceeds 45us", lam)
	}
}

// TestMinTransfersObjectiveVertexIndependent: OBJ-DMAT's objective column
// maxRGI is continuous, so the optimal LP vertex a search lands on can carry
// the transfer count as 2.9999999999999996 instead of 3. Warm and cold
// searches land on different vertices of these instances; both must report
// the same integral count, bit for bit.
func TestMinTransfersObjectiveVertexIndependent(t *testing.T) {
	cm := dma.DefaultCostModel()
	for _, tc := range []struct {
		seed int64
		f    sysgen.Family
	}{{11, sysgen.Harmonic}, {13, sysgen.Harmonic}, {11, sysgen.DeepTies}, {12, sysgen.Saturated}} {
		sc, err := sysgen.Generate(tc.seed, tc.f)
		if err != nil {
			t.Fatal(err)
		}
		a, err := let.Analyze(sc.Sys)
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		gamma, err := rta.Gammas(a, rta.LETDemand(a, cm, dma.GiottoPerCommSchedule(a)), 0.2)
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		solve := func(cold bool) *Result {
			res, err := Solve(a, cm, gamma, dma.MinTransfers, Options{
				MILP: milp.Params{TimeLimit: 60 * time.Second, DisableWarmStart: cold},
			})
			if err != nil {
				t.Fatalf("%s cold=%v: %v", sc.Name, cold, err)
			}
			if res.Status != milp.StatusOptimal {
				t.Fatalf("%s cold=%v: status %s, want optimal", sc.Name, cold, res.Status)
			}
			return res
		}
		cold, warm := solve(true), solve(false)
		if warm.Kernel.WarmExpands == 0 {
			t.Fatalf("%s: warm solve never warm-expanded a node", sc.Name)
		}
		if math.Float64bits(warm.Objective) != math.Float64bits(cold.Objective) {
			t.Errorf("%s: warm objective %.17g, cold %.17g", sc.Name, warm.Objective, cold.Objective)
		}
		if n := float64(warm.Sched.NumTransfers()); math.Float64bits(warm.Objective) != math.Float64bits(n) {
			t.Errorf("%s: objective %.17g, schedule has %g transfers", sc.Name, warm.Objective, n)
		}
	}
}
