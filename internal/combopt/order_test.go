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

// orderProblem builds the ordering problem solveAt hands to orderExact for
// one system, granularity and objective. It reports false when the
// granularity has too many transfers for the exact DP.
func orderProblem(t *testing.T, name string, a *let.Analysis, gamma dma.Deadlines, obj dma.Objective, gran Granularity) (orderInstance, bool) {
	t.Helper()
	_, trs, err := groupAt(a, gran)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if len(trs) > MaxExactOrderDefault {
		return orderInstance{}, false
	}
	return orderInstance{
		name: name,
		cost: transferCosts(a, dma.DefaultCostModel(), trs),
		oo:   buildOrderObjective(a, trs, gamma, obj),
		pred: precedences(a, trs),
	}, true
}

// CheckOrderExact checks orderExact against orderExactDense, with and
// without cutoffs (see checkOrder), on the ordering problem solveAt builds
// for one system, granularity and objective. It reports false when the
// granularity has too many transfers for the exact DP. The system corpus
// lives in an external test package because sysgen and waters depend,
// through the simulator, on packages whose tests import combopt.
func CheckOrderExact(t *testing.T, name string, a *let.Analysis, gamma dma.Deadlines, obj dma.Objective, gran Granularity) bool {
	t.Helper()
	in, ok := orderProblem(t, name, a, gamma, obj, gran)
	if ok {
		checkOrder(t, in)
	}
	return ok
}

// OrderExactStates runs orderExact without a cutoff on the ordering
// problem solveAt builds for one system, granularity and objective, and
// returns the number of states it expanded and whether it found an order.
// exact is false when the granularity has too many transfers for the exact
// DP.
func OrderExactStates(t *testing.T, a *let.Analysis, gamma dma.Deadlines, obj dma.Objective, gran Granularity) (expanded int, ok, exact bool) {
	t.Helper()
	in, exact := orderProblem(t, string(gran), a, gamma, obj, gran)
	if !exact {
		return 0, false, false
	}
	_, _, expanded, ok = orderExact(in.cost, in.oo, in.pred, math.Inf(1))
	return expanded, ok, true
}

// refNeed returns, per task, its transfers req[ti] and every transfer that
// must precede one of them, found by a depth-first walk of pred.
func refNeed(pred []uint64, req []uint64) []uint64 {
	need := make([]uint64, len(req))
	for ti, r := range req {
		var stack []int
		for g := range pred {
			if r&(1<<uint(g)) != 0 {
				stack = append(stack, g)
			}
		}
		seen := r
		for len(stack) > 0 {
			g := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for h := range pred {
				if pred[g]&(1<<uint(h)) != 0 && seen&(1<<uint(h)) == 0 {
					seen |= 1 << uint(h)
					stack = append(stack, h)
				}
			}
		}
		need[ti] = seen
	}
	return need
}

// maskCost sums the costs of the transfers in mask.
func maskCost(cost []int64, mask uint64) int64 {
	var sum int64
	for g, c := range cost {
		if mask&(1<<uint(g)) != 0 {
			sum += c
		}
	}
	return sum
}

// denseStates counts the proper subsets the dense DP reaches, and among
// them the live ones, which orderExact must expand without a cutoff: those
// in which every unfinished task still meets its cap if its needed
// transfers (refNeed) run next.
func denseStates(in orderInstance) (reached, live int) {
	n := len(in.cost)
	size := 1 << uint(n)
	need := refNeed(in.pred, in.oo.req)
	seen := make([]bool, size)
	seen[0] = true
	for s := 0; s < size-1; s++ {
		if !seen[s] {
			continue
		}
		reached++
		su := uint64(s)
		el := maskCost(in.cost, su)
		dead := false
		for ti, nd := range need {
			if rest := nd &^ su; rest != 0 && float64(el+maskCost(in.cost, rest)) > in.oo.cap[ti] {
				dead = true
			}
		}
		if !dead {
			live++
		}
		for g := 0; g < n; g++ {
			bit := uint64(1) << uint(g)
			if su&bit != 0 || in.pred[g]&^su != 0 {
				continue
			}
			ns := su | bit
			valid := true
			for ti, req := range in.oo.req {
				if req&bit != 0 && req&^ns == 0 && float64(el+in.cost[g]) > in.oo.cap[ti] {
					valid = false
				}
			}
			if valid {
				seen[ns] = true
			}
		}
	}
	return reached, live
}

// randomOrderInstances returns seeded random ordering problems with n <= 16
// transfers: a random precedence DAG, costs and denominators drawn from
// small sets (so exact and near ties are common), and caps that make some
// instances infeasible. With tight set, most caps sit within a few
// transfer costs of the task's closure-completion time, the cost of its
// transfers and all their predecessors: a cap just below it is infeasible
// at the root, and one just above it rules out states deep in the DP.
func randomOrderInstances(seed int64, count int, tight bool) []orderInstance {
	rng := rand.New(rand.NewSource(seed))
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
			switch {
			case tight && rng.Intn(4) != 0:
				closed := maskCost(cost, refNeed(pred, []uint64{req})[0])
				capV = float64(closed + []int64{-1, 0, 1, 1000, 2000, 3000, 13360}[rng.Intn(7)])
			case !tight && rng.Intn(3) == 0:
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
// DP's order and value bits and expands exactly the live states, and that
// with a cutoff it returns them whenever the dense value is below the
// cutoff and nothing otherwise. The cutoffs straddle the optimum at the
// resolution of the DP's tie tolerance and of single float steps.
func checkOrder(t *testing.T, in orderInstance) {
	t.Helper()
	wantOrder, wantVal, wantOK := orderExactDense(in.cost, in.oo, in.pred)
	order, val, expanded, ok := orderExact(in.cost, in.oo, in.pred, math.Inf(1))
	if ok != wantOK || !slices.Equal(order, wantOrder) || math.Float64bits(val) != math.Float64bits(wantVal) {
		t.Errorf("%s (n=%d): got %v %v %v, want %v %v %v", in.name, len(in.cost), order, val, ok, wantOrder, wantVal, wantOK)
	}
	if _, live := denseStates(in); expanded != live {
		t.Errorf("%s (n=%d): expanded %d states, want the %d live ones", in.name, len(in.cost), expanded, live)
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
		order, val, _, ok := orderExact(in.cost, in.oo, in.pred, cutoff)
		switch {
		case wantVal >= cutoff && ok:
			t.Errorf("%s: cutoff %v <= optimum %v, got order %v value %v", in.name, cutoff, wantVal, order, val)
		case wantVal < cutoff && (!ok || !slices.Equal(order, wantOrder) || math.Float64bits(val) != math.Float64bits(wantVal)):
			t.Errorf("%s: cutoff %v: got %v %v %v, want %v %v", in.name, cutoff, order, val, ok, wantOrder, wantVal)
		}
	}
}

// TestOrderExactRandomDAGs runs checkOrder on seeded random precedence
// DAGs, a quarter of them with caps at the tasks' closure-completion
// times; TestOrderExactSystems in order_systems_test.go covers the
// problems combopt builds for real systems.
func TestOrderExactRandomDAGs(t *testing.T) {
	feasible, rootDead, innerDead := 0, 0, 0
	insts := append(randomOrderInstances(23, 400, false), randomOrderInstances(29, 150, true)...)
	for _, in := range insts {
		checkOrder(t, in)
		if _, _, ok := orderExactDense(in.cost, in.oo, in.pred); ok {
			feasible++
		}
		switch reached, live := denseStates(in); {
		case live == 0:
			rootDead++
		case live < reached:
			innerDead++
		}
	}
	if feasible == 0 || feasible == len(insts) {
		t.Errorf("%d of %d instances feasible: the corpus must hold both kinds", feasible, len(insts))
	}
	if rootDead == 0 || innerDead == 0 {
		t.Errorf("the root is dead in %d instances and inner states in %d: the corpus must hold both", rootDead, innerDead)
	}
	t.Logf("%d of %d feasible; root dead in %d, inner states dead in %d", feasible, len(insts), rootDead, innerDead)
}
