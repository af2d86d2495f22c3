package combopt

import (
	"cmp"
	"math"
	"math/bits"
	"slices"

	"letdma/internal/dma"
	"letdma/internal/let"
	"letdma/internal/model"
	"letdma/internal/ordered"
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
// (up to 2^n states); larger sets fall back to the list-scheduling
// heuristic.
const MaxExactOrderDefault = 20

// orderTieTol is the strict-improvement threshold of the ordering DP: a
// candidate parent replaces the current one only if it lowers the value by
// more than orderTieTol, so near-ties keep the first parent seen.
const orderTieTol = 1e-15

// cutoffMargin returns how far above the caller's cutoff a state's lower
// bound must lie before orderExact drops it. Because of the orderTieTol
// tie-break, the value the DP keeps for a state can sit up to one
// orderTieTol per level above the best path to it, and a dropped candidate
// can change which near-tied parent wins. A margin of 4(n+1)^2 tolerances
// separates every dropped state from every state on the optimal path by
// more than that drift accumulates over n levels, so whenever the optimum
// beats the cutoff the surviving states, their values and their parents
// are exactly those of the full DP. The argument uses only that the bound
// never exceeds the value of a complete order through the state, so it
// holds for any valid lower bound, the precedence-closure bound included.
func cutoffMargin(n int) float64 { return 4 * float64((n+1)*(n+1)) * orderTieTol }

// dpState is one reachable, precedence-closed subset of transfers in the
// ordering DP: its best value so far, the elapsed time to complete the
// subset (the same along every path), and the last transfer on the path
// that reached the value.
type dpState struct {
	set     uint64
	val     float64
	elapsed int64
	parent  int32
}

// transferCosts returns the worst-case duration of each transfer at s0.
func transferCosts(a *let.Analysis, cm dma.CostModel, transfers []dma.Transfer) []int64 {
	cost := make([]int64, len(transfers))
	for g, tr := range transfers {
		cost[g] = int64(cm.TransferCost(dma.TransferSize(a, tr)))
	}
	return cost
}

// precedenceClosure returns, per transfer, the bitmask of every transfer
// that must precede it, directly or through a chain of precedences.
func precedenceClosure(pred []uint64) []uint64 {
	clo := slices.Clone(pred)
	for changed := true; changed; {
		changed = false
		for g, c := range clo {
			next := c
			for m := c; m != 0; m &= m - 1 {
				next |= clo[bits.TrailingZeros64(m)]
			}
			if next != c {
				clo[g], changed = next, true
			}
		}
	}
	return clo
}

// needMasks returns, per task of oo, the transfers that must have run
// before the task completes: its own transfers and all their
// predecessors.
func needMasks(oo *orderObjective, pred []uint64) []uint64 {
	clo := precedenceClosure(pred)
	need := make([]uint64, len(oo.req))
	for ti, req := range oo.req {
		need[ti] = req
		for m := req; m != 0; m &= m - 1 {
			need[ti] |= clo[bits.TrailingZeros64(m)]
		}
	}
	return need
}

// maskCosts tabulates the total cost of every subset of the low and of
// the high half of the transfers, so the cost of any set of transfers is
// two lookups.
type maskCosts struct {
	half   uint
	lo, hi []int64
}

func newMaskCosts(cost []int64) maskCosts {
	half := (len(cost) + 1) / 2
	return maskCosts{half: uint(half), lo: subsetSums(cost[:half]), hi: subsetSums(cost[half:])}
}

// subsetSums returns the total cost of every subset of the transfers,
// indexed by bitmask.
func subsetSums(cost []int64) []int64 {
	sums := make([]int64, 1<<uint(len(cost)))
	for m := 1; m < len(sums); m++ {
		sums[m] = sums[m&(m-1)] + cost[bits.TrailingZeros(uint(m))]
	}
	return sums
}

// of returns the total cost of the transfers in m.
func (mc maskCosts) of(m uint64) int64 {
	return mc.lo[m&(1<<mc.half-1)] + mc.hi[m>>mc.half]
}

// setBound examines the reachable set s for the given tasks. A task not
// complete in s finishes no earlier than the cost of s plus its needed
// transfers outside s, since s is precedence-closed and all of them must
// still run. s is dead if that time exceeds some task's cap: no valid
// order passes through s. Otherwise setBound returns the largest ratio
// those finishing times reach, a lower bound on the value of every
// complete order through s.
func setBound(s uint64, tasks []int, mc maskCosts, oo *orderObjective, need []uint64) (lb float64, dead bool) {
	for _, ti := range tasks {
		if need[ti]&^s == 0 {
			continue // task complete in s
		}
		lam := float64(mc.of(s | need[ti]))
		if lam > oo.cap[ti] {
			return 0, true
		}
		if r := lam / oo.denom[ti]; r > lb {
			lb = r
		}
	}
	return lb, false
}

// orderExact finds an order of the transfers (with durations cost)
// minimizing max_i lambda_i/denom_i subject to the precedences and
// lambda_i <= cap_i, by dynamic programming over subsets. It returns the
// ordered transfer indices, the objective value and the number of states
// it expanded, or ok=false if no valid order exists.
//
// Only live subsets reachable from the empty set are stored: the
// precedence-closed ones that setBound does not find dead. Deadness
// depends on the set alone, and every set reachable from a dead one is
// dead too or completes a task past its cap, so a live state never has a
// dead parent: dropping dead states when they are created changes no live
// state's value, parent or relaxation order. If the empty set is dead, no
// state is expanded. From a live set, a transfer that completes a task
// ends no later than the bound setBound found within the task's cap (a
// task setBound skips has a cap above the cost of all transfers), so no
// transition out of a live state breaks a cap.
//
// States are expanded level by level (by subset size) and, within a
// level, in increasing numeric order. Every predecessor of a state lies in
// the previous level, so each state is relaxed from its predecessors in
// increasing numeric order, exactly as a loop over all 2^n subsets would,
// and the orderTieTol tie-break picks the same parent.
//
// cutoff is the objective of an incumbent the caller already holds, or
// +Inf. A state is dropped once a lower bound on every completion through
// it reaches cutoff + cutoffMargin(n): the larger of its value, checked
// when the state is expanded, and setBound's, checked when it is created.
// If the uncut DP's value is below cutoff, orderExact returns exactly the
// uncut DP's order and value; otherwise it returns ok=false.
func orderExact(cost []int64, oo *orderObjective, pred []uint64, cutoff float64) (order []int, val float64, expanded int, ok bool) {
	n := len(cost)
	bound := cutoff + cutoffMargin(n)
	cut := !math.IsInf(cutoff, 1)
	full := uint64(1)<<uint(n) - 1
	need := needMasks(oo, pred)
	mc := newMaskCosts(cost)
	// A task whose cap is at least the cost of every transfer never makes
	// a set dead, so without a cutoff setBound skips it.
	var tasks []int
	for ti := range need {
		if cut || float64(mc.of(full)) > oo.cap[ti] {
			tasks = append(tasks, ti)
		}
	}
	// live reports whether the set s is kept.
	live := func(s uint64) bool {
		lb, dead := setBound(s, tasks, mc, oo, need)
		return !dead && !(cut && lb >= bound)
	}

	if !live(0) {
		return nil, 0, 0, false
	}
	levels := make([][]dpState, n+1)
	levels[0] = []dpState{{parent: -1}}
	const dropped = -1 // index entry of a set found dead or cut
	index := make(map[uint64]int32)
	for k := 0; k < n; k++ {
		var next []dpState
		clear(index)
		for _, st := range levels[k] {
			if cut && st.val >= bound {
				continue
			}
			expanded++
			avail := full &^ st.set
			for avail != 0 {
				g := bits.TrailingZeros64(avail)
				bit := uint64(1) << uint(g)
				avail &^= bit
				if pred[g]&^st.set != 0 {
					continue // unmet precedence
				}
				ns := st.set | bit
				el := st.elapsed + cost[g]
				val := st.val
				for _, ti := range oo.lastIn[g] {
					if oo.req[ti]&^ns != 0 {
						continue // task not yet complete
					}
					if r := float64(el) / oo.denom[ti]; r > val {
						val = r
					}
				}
				i, seen := index[ns]
				if i == dropped {
					continue
				}
				cur := math.Inf(1) // an unreached state
				if seen {
					cur = next[i].val
				}
				if !(val < cur-orderTieTol) {
					continue
				}
				if !seen {
					if !live(ns) {
						index[ns] = dropped
						continue
					}
					index[ns] = int32(len(next))
					next = append(next, dpState{set: ns, val: val, elapsed: el, parent: int32(g)})
					continue
				}
				next[i].val, next[i].parent = val, int32(g)
			}
		}
		if len(next) == 0 {
			return nil, 0, expanded, false
		}
		slices.SortFunc(next, func(x, y dpState) int { return cmp.Compare(x.set, y.set) })
		levels[k+1] = next
	}

	// levels[n] holds only the full set.
	if val = levels[n][0].val; val >= cutoff {
		return nil, 0, expanded, false
	}
	order = make([]int, n)
	s := full
	for k := n; k > 0; k-- {
		i, _ := slices.BinarySearchFunc(levels[k], s, func(st dpState, set uint64) int { return cmp.Compare(st.set, set) })
		g := int(levels[k][i].parent)
		order[k-1] = g
		s &^= 1 << uint(g)
	}
	return order, val, expanded, true
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
