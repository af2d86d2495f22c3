// Package multidma extends the paper's protocol from a single DMA engine to
// K parallel DMA channels — the extension suggested by the hardware the
// paper targets (AURIX DMA modules expose tens of channels) and a natural
// "future work" direction of Section VIII.
//
// Semantics. A transfer schedule (grouping + intra-transfer label order,
// produced by internal/combopt or internal/letopt against the same memory
// layout) is distributed over K channels. Each channel executes its
// transfers sequentially (programming overhead, copy, completion ISR, as in
// the single-engine model); distinct channels proceed in parallel. The LET
// ordering constraints become completion-before-start precedences:
//
//   - Property 2: the transfer carrying W(tau_p, l) completes before any
//     transfer carrying R(l, tau_c) starts;
//   - Property 1: every transfer carrying a write of task i completes
//     before any transfer carrying a read of task i starts.
//
// A task is ready when the last transfer carrying any of its
// communications completes (rule R1/R3 unchanged). With K = 1 and the
// original order, the timeline reduces exactly to the single-engine
// accumulation of Constraint 9, which the tests assert.
package multidma

import (
	"fmt"

	"letdma/internal/dma"
	"letdma/internal/let"
	"letdma/internal/model"
	"letdma/internal/ordered"
	"letdma/internal/timeutil"
	"letdma/internal/violation"
)

// Assignment distributes the transfers of a base schedule over channels:
// Channels[k] lists transfer indices (into the base schedule) in their
// per-channel execution order. Every transfer must appear exactly once.
type Assignment struct {
	Channels [][]int
}

// Timeline is the evaluated execution of an assignment at one activation
// instant.
type Timeline struct {
	// Start and Done give each base-schedule transfer's start time and
	// completion time (inclusive of the completion ISR), relative to the
	// activation instant. Transfers absent at this instant have Start =
	// Done = 0 and Present = false.
	Start, Done []timeutil.Time
	Present     []bool
	// Makespan is the completion of the last transfer.
	Makespan timeutil.Time
}

// Evaluate computes the multi-channel timeline of the transfers induced at
// instant t, under completion-before-start precedences. It returns an
// error if the assignment is not a permutation of the base transfers.
func Evaluate(a *let.Analysis, cm dma.CostModel, base *dma.Schedule, asg Assignment, t timeutil.Time) (*Timeline, error) {
	n := len(base.Transfers)
	seen := make([]bool, n)
	for _, ch := range asg.Channels {
		for _, g := range ch {
			if g < 0 || g >= n {
				return nil, fmt.Errorf("multidma: transfer index %d out of range", g)
			}
			if seen[g] {
				return nil, fmt.Errorf("multidma: transfer %d assigned twice", g)
			}
			seen[g] = true
		}
	}
	for g, ok := range seen {
		if !ok {
			return nil, fmt.Errorf("multidma: transfer %d unassigned", g)
		}
	}

	// Which transfers are active at t, and their induced communications.
	induced, origin := base.InducedAt(a, t)
	active := make(map[int]dma.Transfer, len(induced))
	for k, tr := range induced {
		active[origin[k]] = tr
	}

	pred := precedences(a, base)

	tl := &Timeline{
		Start:   make([]timeutil.Time, n),
		Done:    make([]timeutil.Time, n),
		Present: make([]bool, n),
	}
	// Iteratively schedule: per channel, the next unscheduled transfer may
	// start at max(channel free time, all predecessors' completion).
	chFree := make([]timeutil.Time, len(asg.Channels))
	chPos := make([]int, len(asg.Channels))
	scheduled := make([]bool, n)
	remaining := n
	for remaining > 0 {
		progress := false
		for c := range asg.Channels {
			for chPos[c] < len(asg.Channels[c]) {
				g := asg.Channels[c][chPos[c]]
				tr, present := active[g]
				if !present {
					// Skipped at this instant: costs nothing.
					scheduled[g] = true
					chPos[c]++
					remaining--
					progress = true
					continue
				}
				ready := chFree[c]
				blocked := false
				for _, p := range pred[g] {
					if !scheduled[p] {
						blocked = true
						break
					}
					if tl.Present[p] && tl.Done[p] > ready {
						ready = tl.Done[p]
					}
				}
				if blocked {
					break // keep channel order; wait for predecessors
				}
				dur := cm.TransferCost(dma.TransferSize(a, tr))
				tl.Present[g] = true
				tl.Start[g] = ready
				tl.Done[g] = ready + dur
				if tl.Done[g] > tl.Makespan {
					tl.Makespan = tl.Done[g]
				}
				chFree[c] = tl.Done[g]
				scheduled[g] = true
				chPos[c]++
				remaining--
				progress = true
			}
		}
		if !progress {
			return nil, fmt.Errorf("multidma: precedence deadlock across channels")
		}
	}
	return tl, nil
}

// precedences lists, per transfer, the transfers that must complete before
// it starts (Properties 1-2 lifted to completion-before-start).
func precedences(a *let.Analysis, base *dma.Schedule) [][]int {
	n := len(base.Transfers)
	writeOfLabel := make(map[model.LabelID]int)
	writesOfTask := make(map[model.TaskID][]int)
	for g, tr := range base.Transfers {
		for _, z := range tr.Comms {
			c := a.Comms[z]
			if c.Kind == let.Write {
				writeOfLabel[c.Label] = g
				writesOfTask[c.Task] = append(writesOfTask[c.Task], g)
			}
		}
	}
	pred := make([][]int, n)
	for g, tr := range base.Transfers {
		set := make(map[int]bool)
		for _, z := range tr.Comms {
			c := a.Comms[z]
			if c.Kind != let.Read {
				continue
			}
			if wg, ok := writeOfLabel[c.Label]; ok && wg != g {
				set[wg] = true
			}
			for _, wg := range writesOfTask[c.Task] {
				if wg != g {
					set[wg] = true
				}
			}
		}
		pred[g] = append(pred[g], ordered.Keys(set)...)
	}
	return pred
}

// Latency returns the data-acquisition latency of task ti at instant t
// under the multi-channel timeline (zero if ti has no communication at t).
func Latency(a *let.Analysis, cm dma.CostModel, base *dma.Schedule, asg Assignment, t timeutil.Time, ti model.TaskID) (timeutil.Time, error) {
	tl, err := Evaluate(a, cm, base, asg, t)
	if err != nil {
		return 0, err
	}
	var worst timeutil.Time
	for g, tr := range base.Transfers {
		if !tl.Present[g] {
			continue
		}
		for _, z := range tr.Comms {
			if a.Comms[z].Task == ti {
				// Only communications active at t matter; InducedAt already
				// filtered them into the Present transfers, but the base
				// transfer lists all comms — check activity.
				if isActive(a, t, z) && tl.Done[g] > worst {
					worst = tl.Done[g]
				}
			}
		}
	}
	return worst, nil
}

func isActive(a *let.Analysis, t timeutil.Time, z int) bool {
	for _, az := range a.ActiveAt(t) {
		if az == z {
			return true
		}
	}
	return false
}

// MaxLatencyRatio returns max_i lambda_i/T_i at s0 under the assignment.
func MaxLatencyRatio(a *let.Analysis, cm dma.CostModel, base *dma.Schedule, asg Assignment) (float64, error) {
	var worst float64
	for _, task := range a.Sys.Tasks {
		lam, err := Latency(a, cm, base, asg, 0, task.ID)
		if err != nil {
			return 0, err
		}
		if r := float64(lam) / float64(task.Period); r > worst {
			worst = r
		}
	}
	return worst, nil
}

// SingleChannel returns the assignment equivalent to the paper's single
// DMA engine: all transfers on channel 0 in schedule order.
func SingleChannel(base *dma.Schedule) Assignment {
	ch := make([]int, len(base.Transfers))
	for i := range ch {
		ch[i] = i
	}
	return Assignment{Channels: [][]int{ch}}
}

// GreedyAssign distributes the base schedule over k channels by list
// scheduling: transfers are taken in base order (which encodes the
// optimizer's latency priorities) and placed on the channel that lets them
// start earliest, respecting precedences. The s0 pattern is used for the
// cost estimates; the assignment is then fixed for all instants.
func GreedyAssign(a *let.Analysis, cm dma.CostModel, base *dma.Schedule, k int) (Assignment, error) {
	if k < 1 {
		return Assignment{}, fmt.Errorf("multidma: need at least one channel")
	}
	n := len(base.Transfers)
	pred := precedences(a, base)
	asg := Assignment{Channels: make([][]int, k)}
	chFree := make([]timeutil.Time, k)
	done := make([]timeutil.Time, n)
	for g, tr := range base.Transfers {
		dur := cm.TransferCost(dma.TransferSize(a, tr))
		// Earliest start across channels.
		var depReady timeutil.Time
		for _, p := range pred[g] {
			if done[p] > depReady {
				depReady = done[p]
			}
		}
		best := 0
		bestStart := maxTime(chFree[0], depReady)
		for c := 1; c < k; c++ {
			if s := maxTime(chFree[c], depReady); s < bestStart {
				best, bestStart = c, s
			}
		}
		asg.Channels[best] = append(asg.Channels[best], g)
		done[g] = bestStart + dur
		chFree[best] = done[g]
	}
	return asg, nil
}

func maxTime(a, b timeutil.Time) timeutil.Time {
	if a > b {
		return a
	}
	return b
}

// Validate checks that the assignment respects Property 3 at every
// activation instant: every channel finishes the induced transfers of t1
// before the next communication instant. The error, when non-nil, wraps
// the full violation.List (recover it with errors.As on
// *violation.Error); ValidateAll returns the structured list directly.
func Validate(a *let.Analysis, cm dma.CostModel, base *dma.Schedule, asg Assignment) error {
	return ValidateAll(a, cm, base, asg).Err()
}

// ValidateAll is Validate returning every violated condition instead of
// only the first. A malformed assignment (non-permutation, precedence
// deadlock) yields a single channel violation, since no timeline can be
// evaluated from it.
func ValidateAll(a *let.Analysis, cm dma.CostModel, base *dma.Schedule, asg Assignment) violation.List {
	var vs violation.List
	for _, w := range a.Windows() {
		tl, err := Evaluate(a, cm, base, asg, w.Start)
		if err != nil {
			vs.Addf(violation.Channel, "Section VIII", "%v", err)
			return vs
		}
		if tl.Makespan > w.End-w.Start {
			vs.Addf(violation.Property3, "Constraint 10",
				"transfers at t=%v take %v but the next instant is %v later", w.Start, tl.Makespan, w.End-w.Start)
		}
	}
	return vs
}
