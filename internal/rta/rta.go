// Package rta implements the schedulability machinery of Section V-C and
// the sensitivity procedure of Section VII:
//
//   - worst-case response times (WCRT) for periodic tasks under partitioned
//     preemptive fixed-priority scheduling, with release jitter bounded by
//     the data-acquisition latency (classic jitter-aware response-time
//     recurrence);
//   - interference from the per-core LET dispatcher tasks, modelled as a
//     highest-priority sporadic interference source whose execution budget
//     is the worst per-instant CPU demand (DMA programming plus completion
//     ISRs) and whose minimum inter-arrival is the tightest gap between
//     communication instants, following the segmented self-suspending
//     treatment of [14];
//   - the data-acquisition deadline assignment gamma_i = alpha * S_i with
//     S_i = D_i - R_i, and the schedulability re-check with gamma_i as the
//     jitter bound.
package rta

import (
	"fmt"

	"letdma/internal/dma"
	"letdma/internal/let"
	"letdma/internal/model"
	"letdma/internal/timeutil"
)

// LETInterference is a highest-priority sporadic interference source on one
// core: at most Exec CPU time every Period.
type LETInterference struct {
	Exec   timeutil.Time
	Period timeutil.Time
}

// LETDemand derives the per-core LET dispatcher interference from a
// transfer schedule: for each core, the worst-case per-instant CPU demand
// is o_DP for every transfer whose local memory belongs to the core plus
// o_ISR for every completion interrupt it handles (charged, conservatively,
// to the same core), and the minimum inter-arrival is the smallest gap
// between consecutive instants of T* at which the core is involved.
func LETDemand(a *let.Analysis, cm dma.CostModel, sched *dma.Schedule) map[model.CoreID]LETInterference {
	// The per-core demand at t depends on t only through C(t): compute it
	// once per activation pattern, then walk T* for the gaps.
	demandOf := make([]map[model.CoreID]timeutil.Time, len(a.ActiveSubsets()))
	for p, t := range a.ActiveSubsets() {
		induced, _ := sched.InducedAt(a, t)
		demand := make(map[model.CoreID]timeutil.Time)
		for _, tr := range induced {
			core := model.CoreID(a.LocalMemory(tr.Comms[0]))
			demand[core] += cm.ProgramOverhead + cm.ISROverhead
		}
		demandOf[p] = demand
	}
	out := make(map[model.CoreID]LETInterference)
	lastInvolved := make(map[model.CoreID]timeutil.Time)
	minGapOf := make(map[model.CoreID]timeutil.Time)
	for _, t := range a.Instants() {
		for core, d := range demandOf[a.PatternOf(t)] {
			cur := out[core]
			if d > cur.Exec {
				cur.Exec = d
			}
			out[core] = cur
			if last, seen := lastInvolved[core]; seen {
				gap := t - last
				if g, ok := minGapOf[core]; !ok || gap < g {
					minGapOf[core] = gap
				}
			}
			lastInvolved[core] = t
		}
	}
	for core, cur := range out {
		gap, ok := minGapOf[core]
		if !ok || gap <= 0 {
			gap = a.H // involved at a single instant per hyperperiod
		}
		cur.Period = gap
		out[core] = cur
	}
	return out
}

// Jitters maps tasks to release-jitter bounds (typically gamma_i or the
// achieved data-acquisition latency).
type Jitters map[model.TaskID]timeutil.Time

// WCRT computes the worst-case response time of every task under
// partitioned preemptive fixed-priority scheduling with release jitter and
// optional per-core LET interference. The response time is measured from
// the job's release (so a task is schedulable iff R_i + J_i <= D_i, with
// J_i its jitter). Tasks that never converge within their period are
// reported unschedulable with R = 0 and ok = false in the result map.
func WCRT(sys *model.System, jit Jitters, letIntf map[model.CoreID]LETInterference) (map[model.TaskID]timeutil.Time, error) {
	out := make(map[model.TaskID]timeutil.Time, len(sys.Tasks))
	for _, task := range sys.Tasks {
		r, ok := responseTime(sys, task, jit, letIntf)
		if !ok {
			return nil, fmt.Errorf("rta: task %s does not converge below its deadline", task.Name)
		}
		out[task.ID] = r
	}
	return out, nil
}

// responseTime iterates the jitter-aware recurrence
//
//	R = C_i + sum_{j in hp(i)} ceil((R + J_j)/T_j) C_j + LET interference
//
// until a fixed point or until R + J_i exceeds the deadline.
func responseTime(sys *model.System, task *model.Task, jit Jitters, letIntf map[model.CoreID]LETInterference) (timeutil.Time, bool) {
	var hp []*model.Task
	for _, t := range sys.TasksOnCore(task.Core) {
		if t.ID != task.ID && t.Priority < task.Priority {
			hp = append(hp, t)
		}
	}
	intf, hasIntf := letIntf[task.Core]
	ji := jit[task.ID]
	r := task.WCET
	for iter := 0; iter < 1000; iter++ {
		next := task.WCET
		for _, h := range hp {
			jobs := timeutil.CeilDiv(int64(r)+int64(jit[h.ID]), int64(h.Period))
			next += timeutil.Time(jobs) * h.WCET
		}
		if hasIntf && intf.Period > 0 {
			acts := timeutil.CeilDiv(int64(r), int64(intf.Period))
			next += timeutil.Time(acts) * intf.Exec
		}
		if next == r {
			return r, r+ji <= task.Period
		}
		r = next
		if r+ji > task.Period {
			return r, false
		}
	}
	return r, false
}

// Slacks returns S_i = D_i - R_i for every task, with R_i computed at zero
// jitter (the first step of the Section VII sensitivity procedure).
func Slacks(sys *model.System, letIntf map[model.CoreID]LETInterference) (map[model.TaskID]timeutil.Time, error) {
	rs, err := WCRT(sys, nil, letIntf)
	if err != nil {
		return nil, err
	}
	out := make(map[model.TaskID]timeutil.Time, len(rs))
	for id, r := range rs {
		out[id] = sys.Task(id).Period - r
	}
	return out, nil
}

// Gammas assigns gamma_i = alpha * S_i to every task with inter-core
// communications and verifies schedulability with gamma_i as the jitter
// bound. It returns an error when the resulting configuration is
// unschedulable.
func Gammas(a *let.Analysis, letIntf map[model.CoreID]LETInterference, alpha float64) (dma.Deadlines, error) {
	if alpha <= 0 || alpha > 1 {
		return nil, fmt.Errorf("rta: alpha %g outside (0, 1]", alpha)
	}
	slacks, err := Slacks(a.Sys, letIntf)
	if err != nil {
		return nil, err
	}
	gammas := make(dma.Deadlines)
	jit := make(Jitters)
	for _, task := range a.Sys.Tasks {
		ws, rs := a.GroupsFor(0, task.ID)
		if len(ws) == 0 && len(rs) == 0 {
			continue // no inter-core communication: ready at release
		}
		g := timeutil.Time(alpha * float64(slacks[task.ID]))
		if g <= 0 {
			return nil, fmt.Errorf("rta: task %s has no slack (S=%v)", task.Name, slacks[task.ID])
		}
		gammas[task.ID] = g
		jit[task.ID] = g
	}
	if _, err := WCRT(a.Sys, jit, letIntf); err != nil {
		return nil, fmt.Errorf("rta: unschedulable with alpha=%g: %w", alpha, err)
	}
	return gammas, nil
}
