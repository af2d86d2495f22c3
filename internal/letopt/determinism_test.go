package letopt

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"letdma/internal/combopt"
	"letdma/internal/dma"
	"letdma/internal/let"
	"letdma/internal/milp"
	"letdma/internal/model"
	"letdma/internal/waters"
)

// fig1System builds the Fig. 1 scenario: six tasks on two cores with three
// producer/consumer label pairs (same instance as examples/twocore).
func fig1System(t *testing.T) *let.Analysis {
	t.Helper()
	sys := model.NewSystem(2)
	t1 := sys.MustAddTask("tau1", ms(10), ms(1), 0)
	t3 := sys.MustAddTask("tau3", ms(20), ms(2), 0)
	t5 := sys.MustAddTask("tau5", ms(20), ms(2), 0)
	t2 := sys.MustAddTask("tau2", ms(10), ms(1), 1)
	t4 := sys.MustAddTask("tau4", ms(20), ms(2), 1)
	t6 := sys.MustAddTask("tau6", ms(20), ms(2), 1)
	sys.MustAddLabel("l1", 1<<10, t1, t2)
	sys.MustAddLabel("l2", 96<<10, t3, t4)
	sys.MustAddLabel("l3", 64<<10, t5, t6)
	sys.AssignRateMonotonicPriorities()
	a, err := let.Analyze(sys)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestWriteLPDeterministic formulates the same instance twice and requires
// byte-identical LP text. The formulation iterates several Go maps (object
// indices, adjacency pairs, linearization triples); any order dependence
// would show up here as shuffled columns or rows, which in turn perturbs
// branch-and-bound and makes solver runs irreproducible.
func TestWriteLPDeterministic(t *testing.T) {
	full, err := waters.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		a    *let.Analysis
		obj  dma.Objective
	}{
		{"waters2019/OBJ-DEL", full, dma.MinDelayRatio},
		{"waters2019/OBJ-DMAT", full, dma.MinTransfers},
		{"fig1/OBJ-DEL", fig1System(t), dma.MinDelayRatio},
	}
	cm := dma.DefaultCostModel()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var first, second bytes.Buffer
			if err := WriteLP(&first, tc.a, cm, nil, tc.obj, 0); err != nil {
				t.Fatal(err)
			}
			if err := WriteLP(&second, tc.a, cm, nil, tc.obj, 0); err != nil {
				t.Fatal(err)
			}
			if first.Len() == 0 {
				t.Fatal("empty LP text")
			}
			if !bytes.Equal(first.Bytes(), second.Bytes()) {
				t.Errorf("LP text differs between two formulations of the same instance:\n%s",
					firstDiffLine(first.String(), second.String()))
			}
		})
	}
}

// firstDiffLine locates the first line where two renderings diverge.
func firstDiffLine(a, b string) string {
	la := bytes.Split([]byte(a), []byte("\n"))
	lb := bytes.Split([]byte(b), []byte("\n"))
	n := len(la)
	if len(lb) < n {
		n = len(lb)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(la[i], lb[i]) {
			return fmt.Sprintf("line %d: %s vs %s", i+1, la[i], lb[i])
		}
	}
	return "renderings differ in length only"
}

// TestRepeatSolveDeterministic solves the same instance twice with both
// solvers and requires identical schedules and layouts. No time limit is
// set, so both searches run to proven optimality; with a deterministic
// formulation and tie-breaking the explored trees are identical.
func TestRepeatSolveDeterministic(t *testing.T) {
	cm := dma.DefaultCostModel()

	t.Run("combopt/fig1", func(t *testing.T) {
		a := fig1System(t)
		r1, err := combopt.Solve(a, cm, nil, dma.MinDelayRatio)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := combopt.Solve(a, cm, nil, dma.MinDelayRatio)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(r1.Sched, r2.Sched) {
			t.Errorf("combopt schedules differ:\n%+v\nvs\n%+v", r1.Sched, r2.Sched)
		}
		if !reflect.DeepEqual(r1.Layout, r2.Layout) {
			t.Error("combopt layouts differ between repeat solves")
		}
	})

	t.Run("combopt/lite", func(t *testing.T) {
		a, err := let.Analyze(waters.Lite())
		if err != nil {
			t.Fatal(err)
		}
		r1, err := combopt.Solve(a, cm, nil, dma.MinTransfers)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := combopt.Solve(a, cm, nil, dma.MinTransfers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(r1.Sched, r2.Sched) {
			t.Errorf("combopt schedules differ:\n%+v\nvs\n%+v", r1.Sched, r2.Sched)
		}
		if !reflect.DeepEqual(r1.Layout, r2.Layout) {
			t.Error("combopt layouts differ between repeat solves")
		}
	})

	t.Run("letopt/chain", func(t *testing.T) {
		a := chainSystem(t)
		solveOnce := func() *Result {
			res, err := Solve(a, cm, nil, dma.MinDelayRatio, Options{})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		r1, r2 := solveOnce(), solveOnce()
		if r1.Status != r2.Status || r1.Nodes != r2.Nodes {
			t.Errorf("search differs: status %v/%v, nodes %d/%d",
				r1.Status, r2.Status, r1.Nodes, r2.Nodes)
		}
		if !reflect.DeepEqual(r1.Sched, r2.Sched) {
			t.Errorf("letopt schedules differ:\n%+v\nvs\n%+v", r1.Sched, r2.Sched)
		}
		if !reflect.DeepEqual(r1.Layout, r2.Layout) {
			t.Error("letopt layouts differ between repeat solves")
		}
	})
}

// TestSolveWorkersInvariant solves the same instances at Workers 0 and 4
// and requires the entire result — incumbent objective, search
// statistics, decoded layout and schedule — to be identical: without
// FastSearch, -workers may only change wall-clock time. Searches are
// warm-started from combopt and node-bounded so the test stays fast.
func TestSolveWorkersInvariant(t *testing.T) {
	cm := dma.DefaultCostModel()
	cases := []struct {
		name     string
		a        *let.Analysis
		obj      dma.Objective
		maxNodes int
		slow     bool
	}{
		{"chain/OBJ-DEL", chainSystem(t), dma.MinDelayRatio, 3000, false},
		{"chain/OBJ-DMAT", chainSystem(t), dma.MinTransfers, 3000, false},
		{"fig1/OBJ-DMAT", fig1System(t), dma.MinTransfers, 300, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.slow && (testing.Short() || raceEnabled) {
				t.Skip("LP-heavy case; the chain cases cover the engine here")
			}
			warm, err := combopt.Solve(tc.a, cm, nil, tc.obj)
			if err != nil {
				t.Fatal(err)
			}
			solveWith := func(workers int) *Result {
				res, err := Solve(tc.a, cm, nil, tc.obj, Options{
					MILP:       milp.Params{Workers: workers, MaxNodes: tc.maxNodes},
					WarmLayout: warm.Layout,
					WarmSched:  warm.Sched,
				})
				if err != nil {
					t.Fatal(err)
				}
				res.Runtime = 0 // the only field allowed to vary
				return res
			}
			r0, r4 := solveWith(0), solveWith(4)
			if !reflect.DeepEqual(r0, r4) {
				t.Errorf("workers=4 result differs from workers=0:\n%+v\nvs\n%+v", r0, r4)
			}
		})
	}
}
