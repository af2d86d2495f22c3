package combopt

import (
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"letdma/internal/dma"
	"letdma/internal/let"
	"letdma/internal/model"
)

// orderInstance is one input of the ordering DP.
type orderInstance struct {
	name string
	cost []int64
	oo   *orderObjective
	pred []uint64
}

// CheckOrderExact builds the ordering problem solveAt hands to orderExact
// for one system, granularity and objective, and checks orderExact against
// orderExactDense on it, with and without cutoffs (see checkOrder). It
// reports false when the granularity has too many transfers for the exact
// DP. The system corpus lives in an external test package because sysgen
// and waters depend, through the simulator, on packages whose tests import
// combopt.
func CheckOrderExact(t *testing.T, name string, a *let.Analysis, gamma dma.Deadlines, obj dma.Objective, gran Granularity) bool {
	t.Helper()
	_, trs, err := groupAt(a, gran)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if len(trs) > MaxExactOrderDefault {
		return false
	}
	checkOrder(t, orderInstance{
		name: name,
		cost: transferCosts(a, dma.DefaultCostModel(), trs),
		oo:   buildOrderObjective(a, trs, gamma, obj),
		pred: precedences(a, trs),
	})
	return true
}

// randomOrderInstances returns seeded random ordering problems with n <= 16
// transfers: a random precedence DAG, costs and denominators drawn from
// small sets (so exact and near ties are common), and caps that make some
// instances infeasible.
func randomOrderInstances(count int) []orderInstance {
	rng := rand.New(rand.NewSource(23))
	var out []orderInstance
	for k := 0; k < count; k++ {
		n := 1 + rng.Intn(16)
		perm := rng.Perm(n)
		pred := make([]uint64, n)
		for i := 1; i < n; i++ {
			for j := 0; j < i; j++ {
				if rng.Intn(4) == 0 {
					pred[perm[i]] |= 1 << uint(perm[j])
				}
			}
		}
		cost := make([]int64, n)
		for g := range cost {
			cost[g] = []int64{1000, 2000, 3000, 13360 + rng.Int63n(5000)}[rng.Intn(4)]
		}
		oo := &orderObjective{lastIn: make([][]int, n)}
		tasks := 1 + rng.Intn(6)
		for ti := 0; ti < tasks; ti++ {
			req := uint64(0)
			for req == 0 {
				req = rng.Uint64() & (1<<uint(n) - 1)
			}
			oo.tasks = append(oo.tasks, model.TaskID(ti))
			oo.req = append(oo.req, req)
			denom := []float64{1e5, 2e5, 5e5, float64(1e8 + rng.Int63n(9e8))}[rng.Intn(4)]
			if rng.Intn(2) == 0 {
				// A few floats above 1e5: equal latencies then give
				// ratios a few ulps apart, inside orderTieTol.
				denom = 1e5
				for k := rng.Intn(4); k > 0; k-- {
					denom = math.Nextafter(denom, math.Inf(1))
				}
			}
			oo.denom = append(oo.denom, denom)
			capV := math.Inf(1)
			if rng.Intn(3) == 0 {
				capV = float64(rng.Int63n(int64(n) * 10000))
			}
			oo.cap = append(oo.cap, capV)
		}
		for ti, mask := range oo.req {
			for m := mask; m != 0; m &= m - 1 {
				g := bits.TrailingZeros64(m)
				oo.lastIn[g] = append(oo.lastIn[g], ti)
			}
		}
		out = append(out, orderInstance{name: "random", cost: cost, oo: oo, pred: pred})
	}
	return out
}

// checkOrder asserts that orderExact without a cutoff returns the dense
// DP's order and value bits, and that with a cutoff it returns them
// whenever the dense value is below the cutoff and nothing otherwise. The
// cutoffs straddle the optimum at the resolution of the DP's tie tolerance
// and of single float steps.
func checkOrder(t *testing.T, in orderInstance) {
	t.Helper()
	wantOrder, wantVal, wantOK := orderExactDense(in.cost, in.oo, in.pred)
	order, val, ok := orderExact(in.cost, in.oo, in.pred, math.Inf(1))
	if ok != wantOK || !slices.Equal(order, wantOrder) || math.Float64bits(val) != math.Float64bits(wantVal) {
		t.Errorf("%s (n=%d): got %v %v %v, want %v %v %v", in.name, len(in.cost), order, val, ok, wantOrder, wantVal, wantOK)
	}
	if !wantOK {
		return
	}
	m := cutoffMargin(len(in.cost))
	for _, cutoff := range []float64{
		wantVal, math.Nextafter(wantVal, math.Inf(1)), math.Nextafter(wantVal, 0),
		wantVal + orderTieTol, wantVal - orderTieTol, wantVal + m, wantVal - m,
		wantVal * 1.001, wantVal * 0.999, 2 * wantVal, wantVal / 2, 0,
	} {
		order, val, ok := orderExact(in.cost, in.oo, in.pred, cutoff)
		switch {
		case wantVal >= cutoff && ok:
			t.Errorf("%s: cutoff %v <= optimum %v, got order %v value %v", in.name, cutoff, wantVal, order, val)
		case wantVal < cutoff && (!ok || !slices.Equal(order, wantOrder) || math.Float64bits(val) != math.Float64bits(wantVal)):
			t.Errorf("%s: cutoff %v: got %v %v %v, want %v %v", in.name, cutoff, order, val, ok, wantOrder, wantVal)
		}
	}
}

// TestOrderExactRandomDAGs runs checkOrder on seeded random precedence
// DAGs; TestOrderExactSystems in order_systems_test.go covers the problems
// combopt builds for real systems.
func TestOrderExactRandomDAGs(t *testing.T) {
	feasible := 0
	insts := randomOrderInstances(400)
	for _, in := range insts {
		checkOrder(t, in)
		if _, _, ok := orderExactDense(in.cost, in.oo, in.pred); ok {
			feasible++
		}
	}
	if feasible == 0 || feasible == len(insts) {
		t.Errorf("%d of %d instances feasible: the corpus must hold both kinds", feasible, len(insts))
	}
}
