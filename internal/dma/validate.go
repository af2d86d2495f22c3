package dma

import (
	"fmt"
	"sort"

	"letdma/internal/let"
	"letdma/internal/model"
	"letdma/internal/timeutil"
	"letdma/internal/violation"
)

// Deadlines maps each task to its data-acquisition deadline gamma_i.
// Tasks absent from the map are unconstrained.
type Deadlines map[model.TaskID]timeutil.Time

// Validate checks a candidate (layout, schedule) pair against the full
// feasibility conditions of Section VI, independently of any optimizer:
//
//   - the schedule partitions C(s0) into transfers (Constraint 1);
//   - each transfer has a single direction class (same source/destination);
//   - the layout hosts every required object exactly once per memory;
//   - at every distinct activation pattern t in T*, the labels of each
//     induced transfer are contiguous and identically ordered in both the
//     local and the global memory (Constraint 6 / Theorem 1);
//   - LET Property 1 (Constraint 7) and Property 2 (Constraint 8) hold;
//   - lambda_i(s0) <= gamma_i for every constrained task (Constraint 9);
//   - all transfers issued at t1 complete before the next instant t2 of
//     T*, including the wrap-around to the next hyperperiod (Constraint 10).
//
// A nil error means the solution is feasible. The error, when non-nil,
// wraps the full violation.List (recover it with errors.As on
// *violation.Error); ValidateAll returns the structured list directly.
func Validate(a *let.Analysis, cm CostModel, layout *Layout, sched *Schedule, gamma Deadlines) error {
	return ValidateAll(a, cm, layout, sched, gamma).Err()
}

// ValidateAll is Validate returning every violated condition instead of
// only the first. An empty list means the solution is feasible.
func ValidateAll(a *let.Analysis, cm CostModel, layout *Layout, sched *Schedule, gamma Deadlines) violation.List {
	var vs violation.List
	if err := cm.Validate(); err != nil {
		vs.Addf(violation.CostModel, "Section V", "%v", err)
		return vs
	}
	commTr, err := sched.CommTransfer(a.NumComms())
	if err != nil {
		vs.Addf(violation.Partition, "Constraint 1", "%v", err)
		commTr = nil // downstream per-comm checks are skipped
	}

	// Uniform direction class per transfer.
	for g, tr := range sched.Transfers {
		if len(tr.Comms) == 0 {
			vs.Addf(violation.EmptyTransfer, "Constraint 1", "transfer %d is empty", g)
			continue
		}
		cl := a.Class(tr.Comms[0])
		for _, z := range tr.Comms[1:] {
			if a.Class(z) != cl {
				vs.Addf(violation.MixedClass, "Constraint 2",
					"transfer %d mixes direction classes %v and %v", g, cl, a.Class(z))
				break
			}
		}
	}

	// Required objects all placed, exactly once (SetOrder already rejects
	// duplicates; here we check presence), and within each memory's
	// capacity when one is declared.
	for m, objs := range RequiredObjects(a) {
		var bytes int64
		for _, o := range objs {
			if _, ok := layout.Position(m, o); !ok {
				vs.Addf(violation.Placement, "Constraint 3",
					"required object %v not placed in memory %d", o, m)
			}
			bytes += a.Sys.Label(o.Label).Size
		}
		if cap := a.Sys.MemoryCapacity(m); cap > 0 && bytes > cap {
			vs.Addf(violation.Capacity, "Section III-A",
				"memory %d needs %d bytes for label copies but holds %d", m, bytes, cap)
		}
	}

	// Contiguity at every distinct activation pattern.
	for _, t := range a.ActiveSubsets() {
		induced, origin := sched.InducedAt(a, t)
		for k, tr := range induced {
			if err := checkContiguous(a, layout, tr); err != nil {
				vs.Addf(violation.Contiguity, "Constraint 6",
					"transfer %d at t=%v: %v", origin[k], t, err)
			}
		}
	}

	if commTr != nil {
		// Property 1: per task, all writes before all reads (transfer order).
		for _, task := range a.Sys.Tasks {
			ws, rs := a.GroupsFor(0, task.ID)
			for _, w := range ws {
				for _, r := range rs {
					if commTr[w] >= commTr[r] {
						vs.Addf(violation.Property1, "Property 1",
							"task %s: %s in transfer %d not before %s in transfer %d",
							task.Name, a.CommString(w), commTr[w], a.CommString(r), commTr[r])
					}
				}
			}
		}

		// Property 2: per label, the write strictly precedes every read.
		for z, c := range a.Comms {
			if c.Kind != let.Write {
				continue
			}
			for z2, c2 := range a.Comms {
				if c2.Kind == let.Read && c2.Label == c.Label && commTr[z] >= commTr[z2] {
					vs.Addf(violation.Property2, "Property 2",
						"label %s: write in transfer %d, read by %s in transfer %d",
						a.Sys.Label(c.Label).Name, commTr[z], a.Sys.Task(c2.Task).Name, commTr[z2])
				}
			}
		}
	}

	// Constraint 9 at s0.
	for _, tid := range sortedTaskIDs(gamma) {
		g := gamma[tid]
		if l := Latency(a, cm, sched, 0, tid, PerTaskReadiness); l > g {
			vs.Addf(violation.Deadline, "Constraint 9",
				"task %s: lambda=%v > gamma=%v", a.Sys.Task(tid).Name, l, g)
		}
	}

	for _, o := range WindowOverruns(a, cm, sched) {
		vs.Addf(violation.Property3, "Constraint 10",
			"communications at t=%v take %v but the next instant is at %v", o.Window.Start, o.Duration, o.Window.End)
	}
	return vs
}

// Overrun is a window of T* whose communications outlast it.
type Overrun struct {
	Window   let.Window
	Duration timeutil.Time // of the schedule induced at Window.Start
}

// WindowOverruns checks Constraint 10 between consecutive instants of T*
// and across the hyperperiod boundary: it returns, in window order, every
// window whose induced schedule takes longer than the window. The
// duration depends on the window's start only through C(start), so it is
// computed once per activation pattern.
func WindowOverruns(a *let.Analysis, cm CostModel, sched *Schedule) []Overrun {
	dur := make([]timeutil.Time, len(a.ActiveSubsets()))
	for p, t := range a.ActiveSubsets() {
		dur[p] = sched.Duration(a, cm, t)
	}
	var out []Overrun
	for _, w := range a.Windows() {
		if d := dur[a.PatternOf(w.Start)]; d > w.End-w.Start {
			out = append(out, Overrun{Window: w, Duration: d})
		}
	}
	return out
}

// checkContiguous verifies that the labels of one (induced) transfer occupy
// consecutive positions in both involved memories, with the same relative
// order, so that a single (source address, destination address, size)
// triple programs the whole copy.
func checkContiguous(a *let.Analysis, layout *Layout, tr Transfer) error {
	localMem := a.LocalMemory(tr.Comms[0])
	globalMem := a.Sys.GlobalMemory()

	type placed struct {
		z         int
		localPos  int
		globalPos int
	}
	ps := make([]placed, 0, len(tr.Comms))
	for _, z := range tr.Comms {
		lobj, gobj := CommObjects(a, z)
		lp, ok := layout.Position(localMem, lobj)
		if !ok {
			return fmt.Errorf("object %v not placed in local memory %d", lobj, localMem)
		}
		gp, ok := layout.Position(globalMem, gobj)
		if !ok {
			return fmt.Errorf("object %v not placed in global memory", gobj)
		}
		ps = append(ps, placed{z: z, localPos: lp, globalPos: gp})
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].localPos < ps[j].localPos })
	for i := 1; i < len(ps); i++ {
		if ps[i].localPos != ps[i-1].localPos+1 {
			return fmt.Errorf("labels %s and %s not adjacent in local memory %d (positions %d, %d)",
				a.CommString(ps[i-1].z), a.CommString(ps[i].z), localMem, ps[i-1].localPos, ps[i].localPos)
		}
		if ps[i].globalPos != ps[i-1].globalPos+1 {
			return fmt.Errorf("labels %s and %s not adjacent or reordered in global memory (positions %d, %d)",
				a.CommString(ps[i-1].z), a.CommString(ps[i].z), ps[i-1].globalPos, ps[i].globalPos)
		}
	}
	// Equal sizes on both sides are implied: the same labels are copied.
	// A stricter check: matching byte extents.
	for i := 1; i < len(ps); i++ {
		if a.Comms[ps[i].z].Label == a.Comms[ps[i-1].z].Label {
			return fmt.Errorf("transfer copies label %d twice", a.Comms[ps[i].z].Label)
		}
	}
	return nil
}

// sortedTaskIDs returns the keys of gamma in increasing order, so the
// violation list is deterministic.
func sortedTaskIDs(gamma Deadlines) []model.TaskID {
	out := make([]model.TaskID, 0, len(gamma))
	for id := range gamma {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
