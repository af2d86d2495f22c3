package combopt

import (
	"math"
	"math/bits"

	"letdma/internal/dma"
	"letdma/internal/let"
	"letdma/internal/model"
	"letdma/internal/ordered"
	"letdma/internal/timeutil"
)

// precedences computes, for each transfer, the bitmask of transfers that
// must precede it:
//
//   - Property 2: the transfer carrying W(tau_p, l) precedes every transfer
//     carrying R(l, tau_c);
//   - Property 1: every transfer carrying a write of task i precedes every
//     transfer carrying a read of task i.
func precedences(a *let.Analysis, transfers []dma.Transfer) []uint64 {
	n := len(transfers)
	writeOfLabel := make(map[model.LabelID]int) // label -> transfer index
	writesOfTask := make(map[model.TaskID]uint64)
	for g, tr := range transfers {
		for _, z := range tr.Comms {
			c := a.Comms[z]
			if c.Kind == let.Write {
				writeOfLabel[c.Label] = g
				writesOfTask[c.Task] |= 1 << uint(g)
			}
		}
	}
	pred := make([]uint64, n)
	for g, tr := range transfers {
		for _, z := range tr.Comms {
			c := a.Comms[z]
			if c.Kind != let.Read {
				continue
			}
			if wg, ok := writeOfLabel[c.Label]; ok && wg != g {
				pred[g] |= 1 << uint(wg)
			}
			pred[g] |= writesOfTask[c.Task] &^ (1 << uint(g))
		}
	}
	return pred
}

// taskReq returns, per task, the bitmask of transfers carrying any of its
// communications at s0 (its completion set under rule R1). Tasks without
// communications are omitted.
func taskReq(a *let.Analysis, transfers []dma.Transfer) map[model.TaskID]uint64 {
	req := make(map[model.TaskID]uint64)
	for g, tr := range transfers {
		for _, z := range tr.Comms {
			req[a.Comms[z].Task] |= 1 << uint(g)
		}
	}
	return req
}

// orderObjective carries the per-task denominators and caps used by the
// ordering optimizers: the value of an order is max_i lambda_i/denom_i, and
// any order with lambda_i > cap_i for some i is invalid.
type orderObjective struct {
	tasks  []model.TaskID
	req    []uint64
	denom  []float64 // objective denominator (T_i or gamma_i)
	cap    []float64 // hard cap (gamma_i or +inf), in same unit as lambda
	lastIn [][]int   // per transfer, indices into tasks with that bit set
}

func buildOrderObjective(a *let.Analysis, transfers []dma.Transfer, gamma dma.Deadlines, obj dma.Objective) *orderObjective {
	reqm := taskReq(a, transfers)
	oo := &orderObjective{lastIn: make([][]int, len(transfers))}
	ids := ordered.Keys(reqm)
	for _, id := range ids {
		oo.tasks = append(oo.tasks, id)
		oo.req = append(oo.req, reqm[id])
		capV := math.Inf(1)
		if g, ok := gamma[id]; ok {
			capV = float64(g)
		}
		denom := float64(a.Sys.Task(id).Period)
		if obj != dma.MinDelayRatio && !math.IsInf(capV, 1) {
			// Feasibility-driven objectives: spread slack w.r.t. gamma.
			denom = capV
		}
		oo.denom = append(oo.denom, denom)
		oo.cap = append(oo.cap, capV)
	}
	for ti, mask := range oo.req {
		m := mask
		for m != 0 {
			g := bits.TrailingZeros64(m)
			m &^= 1 << uint(g)
			oo.lastIn[g] = append(oo.lastIn[g], ti)
		}
	}
	return oo
}

// MaxExactOrderDefault bounds the transfer count for the exact subset DP
// (2^n states); larger sets fall back to the list-scheduling heuristic.
const MaxExactOrderDefault = 20

// orderExact finds an order of the transfers minimizing
// max_i lambda_i/denom_i subject to the precedences and lambda_i <= cap_i,
// by dynamic programming over subsets. It returns the ordered transfer
// indices and the objective value, or ok=false if no valid order exists.
func orderExact(a *let.Analysis, cm dma.CostModel, transfers []dma.Transfer, oo *orderObjective, pred []uint64) (order []int, val float64, ok bool) {
	n := len(transfers)
	cost := make([]int64, n)
	for g, tr := range transfers {
		cost[g] = int64(cm.TransferCost(dma.TransferSize(a, tr)))
	}
	size := 1 << uint(n)
	dp := make([]float64, size)
	elapsed := make([]int64, size)
	parent := make([]int32, size)
	for i := range dp {
		dp[i] = math.Inf(1)
		parent[i] = -1
	}
	dp[0] = 0
	full := uint64(size - 1)
	for s := 0; s < size; s++ {
		if math.IsInf(dp[s], 1) {
			continue
		}
		su := uint64(s)
		avail := full &^ su
		for avail != 0 {
			g := bits.TrailingZeros64(avail)
			bit := uint64(1) << uint(g)
			avail &^= bit
			if pred[g]&^su != 0 {
				continue // unmet precedence
			}
			ns := su | bit
			el := elapsed[s] + cost[g]
			val := dp[s]
			valid := true
			for _, ti := range oo.lastIn[g] {
				if oo.req[ti]&^ns != 0 {
					continue // task not yet complete
				}
				lam := float64(el)
				if lam > oo.cap[ti] {
					valid = false
					break
				}
				if r := lam / oo.denom[ti]; r > val {
					val = r
				}
			}
			if !valid {
				continue
			}
			if val < dp[ns]-1e-15 {
				dp[ns] = val
				elapsed[ns] = el
				parent[ns] = int32(g)
			}
		}
	}
	if math.IsInf(dp[size-1], 1) {
		return nil, 0, false
	}
	// Reconstruct.
	order = make([]int, 0, n)
	for s := size - 1; s != 0; {
		g := int(parent[s])
		order = append(order, g)
		s &^= 1 << uint(g)
	}
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	return order, dp[size-1], true
}

// orderHeuristic is deadline-pressure list scheduling: among transfers with
// satisfied precedences, repeatedly pick the one whose most urgent
// dependent task (smallest denominator) is most pressing; ties break on
// transfer index for determinism.
func orderHeuristic(oo *orderObjective, pred []uint64, n int) []int {
	urgency := make([]float64, n)
	for g := 0; g < n; g++ {
		urgency[g] = math.Inf(1)
		for _, ti := range oo.lastIn[g] {
			if oo.denom[ti] < urgency[g] {
				urgency[g] = oo.denom[ti]
			}
			if oo.cap[ti] < urgency[g] {
				urgency[g] = oo.cap[ti]
			}
		}
	}
	var done uint64
	order := make([]int, 0, n)
	for len(order) < n {
		best := -1
		for g := 0; g < n; g++ {
			if done&(1<<uint(g)) != 0 || pred[g]&^done != 0 {
				continue
			}
			if best == -1 || urgency[g] < urgency[best] {
				best = g
			}
		}
		if best == -1 {
			// Precedence cycle cannot happen with Properties 1-2 on a
			// partition; guard anyway.
			for g := 0; g < n; g++ {
				if done&(1<<uint(g)) == 0 {
					best = g
					break
				}
			}
		}
		order = append(order, best)
		done |= 1 << uint(best)
	}
	return order
}

// applyOrder returns a schedule with the transfers arranged in the given
// order.
func applyOrder(transfers []dma.Transfer, order []int) *dma.Schedule {
	s := &dma.Schedule{Transfers: make([]dma.Transfer, 0, len(order))}
	for _, g := range order {
		s.Transfers = append(s.Transfers, transfers[g])
	}
	return s
}

// evalOrder computes max_i lambda_i/denom_i for a finished schedule and
// whether all caps hold.
func evalOrder(a *let.Analysis, cm dma.CostModel, sched *dma.Schedule, oo *orderObjective) (float64, bool) {
	var worst float64
	okAll := true
	for i, id := range oo.tasks {
		lam := float64(dma.Latency(a, cm, sched, 0, id, dma.PerTaskReadiness))
		if lam > oo.cap[i] {
			okAll = false
		}
		if r := lam / oo.denom[i]; r > worst {
			worst = r
		}
	}
	return worst, okAll
}

// latenciesUs is a debugging helper returning per-task s0 latencies in
// microseconds.
func latenciesUs(a *let.Analysis, cm dma.CostModel, sched *dma.Schedule) map[string]float64 {
	out := make(map[string]float64)
	for _, task := range a.Sys.Tasks {
		l := dma.Latency(a, cm, sched, 0, task.ID, dma.PerTaskReadiness)
		out[task.Name] = float64(l) / float64(timeutil.Microsecond)
	}
	return out
}
