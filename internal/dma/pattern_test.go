package dma_test

import (
	"maps"
	"slices"
	"testing"

	"letdma/internal/combopt"
	"letdma/internal/dma"
	"letdma/internal/let"
	"letdma/internal/model"
	"letdma/internal/ordered"
	"letdma/internal/rta"
	"letdma/internal/sysgen"
	"letdma/internal/timeutil"
	"letdma/internal/violation"
	"letdma/internal/waters"
)

// The tests in this file check the per-pattern evaluation of dma and rta
// (one induction per distinct active set C(t)) against per-instant
// reference loops that induce the schedule at every instant of T*.

// refWorstLatency is WorstLatency evaluated at every release instant.
func refWorstLatency(a *let.Analysis, cm dma.CostModel, s *dma.Schedule, ti model.TaskID, rule dma.ReadinessRule) timeutil.Time {
	period := a.Sys.Task(ti).Period
	var worst timeutil.Time
	for _, t := range a.Instants() {
		if int64(t)%int64(period) != 0 {
			continue
		}
		if l := dma.Latency(a, cm, s, t, ti, rule); l > worst {
			worst = l
		}
	}
	return worst
}

// refConstraint10 is ValidateAll's Constraint 10 check with the duration
// recomputed for every window.
func refConstraint10(a *let.Analysis, cm dma.CostModel, s *dma.Schedule) violation.List {
	var vs violation.List
	for _, w := range a.Windows() {
		if d := s.Duration(a, cm, w.Start); d > w.End-w.Start {
			vs.Addf(violation.Property3, "Constraint 10",
				"communications at t=%v take %v but the next instant is at %v", w.Start, d, w.End)
		}
	}
	return vs
}

// refLETDemand is rta.LETDemand inducing the schedule at every instant.
func refLETDemand(a *let.Analysis, cm dma.CostModel, sched *dma.Schedule) map[model.CoreID]rta.LETInterference {
	out := make(map[model.CoreID]rta.LETInterference)
	lastInvolved := make(map[model.CoreID]timeutil.Time)
	minGapOf := make(map[model.CoreID]timeutil.Time)
	for _, t := range a.Instants() {
		induced, _ := sched.InducedAt(a, t)
		demand := make(map[model.CoreID]timeutil.Time)
		for _, tr := range induced {
			demand[model.CoreID(a.LocalMemory(tr.Comms[0]))] += cm.ProgramOverhead + cm.ISROverhead
		}
		for _, core := range ordered.Keys(demand) {
			cur := out[core]
			cur.Exec = max(cur.Exec, demand[core])
			out[core] = cur
			if last, seen := lastInvolved[core]; seen {
				if g, ok := minGapOf[core]; !ok || t-last < g {
					minGapOf[core] = t - last
				}
			}
			lastInvolved[core] = t
		}
	}
	for _, core := range ordered.Keys(out) {
		cur := out[core]
		cur.Period = a.H
		if g, ok := minGapOf[core]; ok && g > 0 {
			cur.Period = g
		}
		out[core] = cur
	}
	return out
}

type caseSched struct {
	name string
	s    *dma.Schedule
}

// schedules returns the schedules each analysis is evaluated under: the
// Giotto per-communication baseline, the combinatorial OBJ-DEL and OBJ-DMAT
// schedules at alpha 0.3 (when feasible) and their Giotto reorderings, and
// one transfer per direction class, which violates Constraint 10 on most
// systems.
func schedules(t *testing.T, a *let.Analysis) []caseSched {
	t.Helper()
	cm := dma.DefaultCostModel()
	perComm := dma.GiottoPerCommSchedule(a)
	out := []caseSched{{"per-comm", perComm}}
	if gamma, err := rta.Gammas(a, rta.LETDemand(a, cm, perComm), 0.3); err == nil {
		for _, obj := range []dma.Objective{dma.MinDelayRatio, dma.MinTransfers} {
			if res, err := combopt.Solve(a, cm, gamma, obj); err == nil {
				out = append(out, caseSched{"comb-" + obj.String(), res.Sched},
					caseSched{"reorder-" + obj.String(), dma.GiottoReorder(a, res.Sched)})
			}
		}
	}
	byClass := make(map[let.DirectionClass]int)
	perClass := &dma.Schedule{}
	for z := range a.Comms {
		g, ok := byClass[a.Class(z)]
		if !ok {
			g = len(perClass.Transfers)
			byClass[a.Class(z)] = g
			perClass.Transfers = append(perClass.Transfers, dma.Transfer{})
		}
		perClass.Transfers[g].Comms = append(perClass.Transfers[g].Comms, z)
	}
	return append(out, caseSched{"per-class", perClass})
}

type named struct {
	name string
	a    *let.Analysis
}

// corpus returns full WATERS, WATERS-lite and three seeds of every sysgen
// family that has inter-core communication.
func corpus(t *testing.T) []named {
	t.Helper()
	full, err := waters.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	lite, err := let.Analyze(waters.Lite())
	if err != nil {
		t.Fatal(err)
	}
	out := []named{{"waters", full}, {"lite", lite}}
	scs, err := sysgen.GenerateN(1, 3*len(sysgen.Families()))
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range scs {
		if a, err := let.Analyze(sc.Sys); err == nil {
			out = append(out, named{sc.Name, a})
		}
	}
	return out
}

func TestPerPatternEvaluationMatchesPerInstant(t *testing.T) {
	cms := []dma.CostModel{dma.DefaultCostModel(), dma.CPUCopyCostModel()}
	c10 := 0
	for _, c := range corpus(t) {
		a := c.a
		layout := dma.TrivialLayout(a)
		for _, cs := range schedules(t, a) {
			for _, cm := range cms {
				for _, task := range a.Sys.Tasks {
					for _, rule := range []dma.ReadinessRule{dma.PerTaskReadiness, dma.AfterAllReadiness} {
						got := dma.WorstLatency(a, cm, cs.s, task.ID, rule)
						if want := refWorstLatency(a, cm, cs.s, task.ID, rule); got != want {
							t.Errorf("%s/%s: WorstLatency(%s, rule %d) = %v, want %v", c.name, cs.name, task.Name, rule, got, want)
						}
					}
				}
				got := dma.ValidateAll(a, cm, layout, cs.s, nil).Filter(violation.Property3)
				want := refConstraint10(a, cm, cs.s)
				if !slices.Equal(got, want) {
					t.Errorf("%s/%s: Constraint 10 violations\n%v\nwant\n%v", c.name, cs.name, got, want)
				}
				c10 += len(want)
				if got, want := rta.LETDemand(a, cm, cs.s), refLETDemand(a, cm, cs.s); !maps.Equal(got, want) {
					t.Errorf("%s/%s: LETDemand = %v, want %v", c.name, cs.name, got, want)
				}
			}
		}
	}
	if c10 == 0 {
		t.Error("no schedule violated Constraint 10; the violation-list comparison is vacuous")
	}
	t.Logf("compared %d Constraint 10 violations", c10)
}
