package sim_test

import (
	"reflect"
	"testing"

	"letdma/internal/combopt"
	"letdma/internal/dma"
	"letdma/internal/faultsim"
	"letdma/internal/let"
	"letdma/internal/sim"
	"letdma/internal/sysgen"
	"letdma/internal/timeutil"
	"letdma/internal/waters"
)

var (
	protocols = []sim.Protocol{sim.Proposed, sim.GiottoCPU, sim.GiottoDMAA, sim.GiottoDMAB}
	policies  = []sim.DegradePolicy{sim.AbortTransfer, sim.WaitAll, sim.FailFast}
	// heavyFaults fails transfers on every system; lightFaults mostly
	// jitters and retries, so its replays leave other stamps behind.
	heavyFaults = faultsim.Model{Seed: 3, JitterPermille: 500, BurstRate: 0.3, BurstPermille: 3000,
		ErrorRate: 0.3, DropRate: 0.1, Retries: 1, BackoffBase: timeutil.Microseconds(20)}
	lightFaults = faultsim.Model{Seed: 5, JitterPermille: 200, ErrorRate: 0.05, Retries: 2,
		BackoffBase: timeutil.Microseconds(5)}
)

// dropAll hard-drops every transfer. A comm's completion stamp then
// keeps the value the previous replay on the plan left: the sequence
// number of the comm's last activation.
type dropAll struct{}

func (dropAll) Attempt(_ timeutil.Time, _, _ int, nominal timeutil.Time) (timeutil.Time, sim.FaultVerdict) {
	return nominal, sim.AttemptDropped
}
func (dropAll) MaxRetries() int           { return 0 }
func (dropAll) Backoff(int) timeutil.Time { return 0 }

type system struct {
	name  string
	a     *let.Analysis
	sched *dma.Schedule
}

// replayCorpus returns full WATERS, WATERS-lite and three seeds of every
// sysgen family, each with its combinatorial OBJ-DEL schedule.
func replayCorpus(t *testing.T) []system {
	t.Helper()
	full, err := waters.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	lite, err := let.Analyze(waters.Lite())
	if err != nil {
		t.Fatal(err)
	}
	as := []system{{name: "waters", a: full}, {name: "lite", a: lite}}
	scs, err := sysgen.GenerateN(1, 3*len(sysgen.Families()))
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range scs {
		if a, err := let.Analyze(sc.Sys); err == nil {
			as = append(as, system{name: sc.Name, a: a})
		}
	}
	var out []system
	for i, s := range as {
		res, err := combopt.Solve(s.a, dma.DefaultCostModel(), nil, dma.MinDelayRatio)
		if err != nil {
			if i < 2 {
				t.Fatalf("%s: %v", s.name, err)
			}
			continue
		}
		s.sched = res.Sched
		out = append(out, s)
	}
	if len(out) < 10 {
		t.Fatalf("only %d systems in the replay corpus", len(out))
	}
	return out
}

// replayConfigs is a sequence of replays of one protocol: nominal, every
// transfer dropped under AbortTransfer, then each policy under heavy
// and light faults, heavy before light so a reused plan meets the stamps
// a failing replay left behind.
func replayConfigs(s system, proto sim.Protocol, hyperperiods int) []sim.Config {
	base := sim.Config{Analysis: s.a, Cost: dma.DefaultCostModel(), Sched: s.sched, Protocol: proto, Hyperperiods: hyperperiods}
	dropped := base
	dropped.Inject = dropAll{}
	cfgs := []sim.Config{base, dropped}
	for _, policy := range policies {
		for _, m := range []faultsim.Model{heavyFaults, lightFaults} {
			cfg := base
			cfg.Inject = &m
			cfg.Policy = policy
			cfgs = append(cfgs, cfg)
		}
	}
	return append(cfgs, base)
}

// TestReusedPlanMatchesFresh: every Run on one reused Plan returns a
// Result deep-equal to a Run on a fresh plan, over the replay corpus,
// the four protocols and the three policies, nominal and faulted.
func TestReusedPlanMatchesFresh(t *testing.T) {
	for _, s := range replayCorpus(t) {
		hyperperiods := 2
		if s.name == "waters" {
			hyperperiods = 1
		}
		for _, proto := range protocols {
			cfgs := replayConfigs(s, proto, hyperperiods)
			plan, err := sim.NewPlan(cfgs[0])
			if err != nil {
				t.Fatal(err)
			}
			for i, cfg := range cfgs {
				want, err := sim.Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				got, err := plan.Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s/%v: replay %d (policy %v, injected %v) on a reused plan differs from a fresh plan",
						s.name, proto, i, cfg.Policy, cfg.Inject != nil)
				}
			}
		}
	}
}

// TestPlanReuseLeavesResultsIntact: a FailFast faulted replay, a nominal
// one and then WaitAll and AbortTransfer faulted ones on one Plan each
// equal a fresh-plan run, and every Result still equals it after all the
// later Runs, so no Result shares memory with the plan. The
// AbortTransfer replays are needed: under WaitAll and FailFast a failed
// transfer's completion stamp is never read.
func TestPlanReuseLeavesResultsIntact(t *testing.T) {
	a, err := let.Analyze(waters.Lite())
	if err != nil {
		t.Fatal(err)
	}
	cm := dma.DefaultCostModel()
	solved, err := combopt.Solve(a, cm, nil, dma.MinDelayRatio)
	if err != nil {
		t.Fatal(err)
	}
	base := sim.Config{Analysis: a, Cost: cm, Sched: solved.Sched, Protocol: sim.Proposed, Hyperperiods: 2}
	faulted := func(policy sim.DegradePolicy, m faultsim.Model) sim.Config {
		cfg := base
		cfg.Inject = &m
		cfg.Policy = policy
		return cfg
	}
	dropped := base
	dropped.Inject = dropAll{}
	cfgs := []sim.Config{
		faulted(sim.FailFast, heavyFaults),
		base,
		faulted(sim.WaitAll, heavyFaults),
		base,
		dropped,
		faulted(sim.AbortTransfer, heavyFaults),
		faulted(sim.AbortTransfer, lightFaults),
		faulted(sim.WaitAll, lightFaults),
	}
	plan, err := sim.NewPlan(base)
	if err != nil {
		t.Fatal(err)
	}
	var got, want []*sim.Result
	for i, cfg := range cfgs {
		fresh, err := sim.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := plan.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, fresh) {
			t.Fatalf("run %d (policy %v, injected %v): reused plan differs from a fresh plan", i, cfg.Policy, cfg.Inject != nil)
		}
		got, want = append(got, res), append(want, fresh)
	}
	if len(want[0].Violations) == 0 || !want[0].Halted {
		t.Fatal("the fail-fast replay did not halt on a fault")
	}
	if want[4].StaleComms == 0 || want[5].StaleComms == 0 {
		t.Fatal("an abort-transfer replay left no stale communication")
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("run %d: Result changed after later Runs on its plan", i)
		}
	}
}

// TestRunUnlessSpilledMatchesRun: on one reused Plan, RunUnlessSpilled
// reports a spill exactly when Run counts a Property 3 violation, and
// otherwise returns Run's Result, over the replay corpus, the four
// protocols and copy slowdowns on both sides of each schedule's margin. A
// replay cut short at a spill leaves nothing behind for the next one.
// Plan.Spills, which only sums transfer costs, agrees with both and with
// dma.WindowOverruns (Constraint 10) on the protocol's effective
// schedule under the protocol's copy model.
func TestRunUnlessSpilledMatchesRun(t *testing.T) {
	spills, clean := 0, 0
	for _, s := range replayCorpus(t) {
		for _, proto := range protocols {
			base := sim.Config{Analysis: s.a, Cost: dma.DefaultCostModel(), CPUCost: dma.CPUCopyCostModel(), Sched: s.sched, Protocol: proto}
			plan, err := sim.NewPlan(base)
			if err != nil {
				t.Fatal(err)
			}
			eff := s.sched
			switch proto {
			case sim.GiottoDMAB:
				eff = dma.GiottoReorder(s.a, s.sched)
			case sim.GiottoCPU, sim.GiottoDMAA:
				eff = dma.GiottoPerCommSchedule(s.a)
			}
			for _, slow := range []int64{1, 3, 400, 4000, 40000, 1} {
				cfg := base
				cfg.Cost.CopyNsNum *= slow
				cfg.CPUCost.CopyNsNum *= slow
				want, err := sim.Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				got, spilled, err := plan.RunUnlessSpilled(cfg)
				if err != nil {
					t.Fatal(err)
				}
				bound, err := plan.Spills(cfg)
				if err != nil {
					t.Fatal(err)
				}
				cost := cfg.Cost
				if proto == sim.GiottoCPU {
					cost = cfg.CPUCost
				}
				overruns := dma.WindowOverruns(s.a, cost, eff)
				switch {
				case spilled != (want.Property3Violations > 0):
					t.Fatalf("%s/%v x%d: spilled=%v, Run counts %d Property 3 violations", s.name, proto, slow, spilled, want.Property3Violations)
				case spilled && got != nil:
					t.Fatalf("%s/%v x%d: a spilled run returned a Result", s.name, proto, slow)
				case !spilled && !reflect.DeepEqual(got, want):
					t.Fatalf("%s/%v x%d: RunUnlessSpilled's Result differs from Run's", s.name, proto, slow)
				case bound != spilled || bound != (len(overruns) > 0):
					t.Fatalf("%s/%v x%d: Spills=%v, the replay spilled=%v, %d window overruns", s.name, proto, slow, bound, spilled, len(overruns))
				}
				if spilled {
					spills++
				} else {
					clean++
				}
			}
		}
	}
	if spills == 0 || clean == 0 {
		t.Errorf("%d spilled and %d clean replays: the sweep must hold both", spills, clean)
	}
}
