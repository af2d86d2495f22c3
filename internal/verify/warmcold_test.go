package verify

import (
	"math"
	"reflect"
	"testing"

	"letdma/internal/dma"
	"letdma/internal/let"
	"letdma/internal/letopt"
	"letdma/internal/milp"
	"letdma/internal/sysgen"
)

// TestWarmColdScenarioEquivalence runs the full Section-VI MILP on
// generated scenarios with warm expansion enabled and disabled and holds
// the depth-first engine to its contract end to end:
//
//   - warm and cold agree on status and objective whenever both decided
//     (the node limit may cut the two trajectories at different
//     incumbents); OBJ-DMAT reports an integral count, so it must agree bit
//     for bit, while the OBJ-DEL ratio may differ in the last bits between
//     the two optimal LP vertices;
//   - the warm solve replays bit-identically run to run, decoded layout and
//     schedule included;
//   - warm expansion actually happens, so none of this passes vacuously.
//
// The node limit makes truncated searches deterministic; a time limit would
// make the truncation point wall-clock dependent, so none is set.
func TestWarmColdScenarioEquivalence(t *testing.T) {
	n := 18
	if testing.Short() {
		n = 6
	}
	scenarios, err := sysgen.GenerateN(11, n)
	if err != nil {
		t.Fatal(err)
	}
	cm := dma.DefaultCostModel()
	covered, compared, expands := 0, 0, 0
	for _, sc := range scenarios {
		if sc.ExpectNoComm {
			continue
		}
		a, err := let.Analyze(sc.Sys)
		if err != nil {
			continue
		}
		if a.NumComms() > 5 {
			continue // keep the MILP small enough for the repeated solves
		}
		covered++
		gamma := deriveGamma(a, cm, 0.2)
		for _, obj := range []dma.Objective{dma.MinTransfers, dma.MinDelayRatio} {
			solve := func(disable bool) *letopt.Result {
				res, err := letopt.Solve(a, cm, gamma, obj, letopt.Options{
					MILP: milp.Params{MaxNodes: 96, DisableWarmStart: disable},
				})
				if err != nil {
					t.Fatalf("%s/%s disable=%v: %v", sc.Name, obj, disable, err)
				}
				res.Runtime = 0 // the only field a replay may change
				return res
			}
			cold, warm := solve(true), solve(false)
			if cold.Kernel.WarmAttempts != 0 {
				t.Fatalf("%s/%s: DisableWarmStart still solved warm: %+v", sc.Name, obj, cold.Kernel)
			}
			expands += warm.Kernel.WarmExpands
			if decidedStatus(cold.Status) && decidedStatus(warm.Status) {
				compared++
				if cold.Status != warm.Status || !sameObjective(obj, cold.Objective, warm.Objective) {
					t.Fatalf("%s/%s: warm %s/%.17g, cold %s/%.17g",
						sc.Name, obj, warm.Status, warm.Objective, cold.Status, cold.Objective)
				}
			}
			if again := solve(false); !reflect.DeepEqual(warm, again) {
				t.Fatalf("%s/%s: warm solve does not replay:\nfirst  %+v\nsecond %+v",
					sc.Name, obj, warm, again)
			}
		}
	}
	floor := 3
	if testing.Short() {
		floor = 2
	}
	if covered < floor {
		t.Fatalf("only %d scenarios exercised the MILP; the equivalence check is too thin", covered)
	}
	if compared == 0 || expands == 0 {
		t.Fatalf("vacuous run: %d decided warm/cold pairs compared, %d warm expansions", compared, expands)
	}
}

func decidedStatus(s milp.Status) bool {
	return s == milp.StatusOptimal || s == milp.StatusInfeasible
}

// sameObjective compares warm and cold objectives: bit for bit for the
// integral OBJ-DMAT count, to 1e-9 relative for the OBJ-DEL ratio.
func sameObjective(obj dma.Objective, a, b float64) bool {
	if obj == dma.MinTransfers {
		return math.Float64bits(a) == math.Float64bits(b)
	}
	return math.Abs(a-b) <= 1e-9*(1+math.Abs(a))
}
