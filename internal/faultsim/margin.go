// Robustness-margin analysis: how far can the platform degrade before an
// optimized schedule stops meeting LET semantics, and how often does it
// survive a given fault rate. Both metrics come from replaying the
// schedule through the discrete-event simulator — the analytic bounds of
// the MILP say nothing about faulted runs — except where a fault-free run
// spills a window, which Constraint 10 decides without a replay.
package faultsim

import (
	"fmt"

	"letdma/internal/dma"
	"letdma/internal/let"
	"letdma/internal/sim"
	"letdma/internal/timeutil"
)

// MarginConfig describes one robustness analysis: a schedule (via the
// protocol + transfer schedule), the platform cost models, and the fault
// scenario family to sweep.
type MarginConfig struct {
	Analysis *let.Analysis
	Cost     dma.CostModel
	// CPUCost is the Giotto-CPU copy model (default
	// dma.CPUCopyCostModel()); the slowdown search scales it there.
	CPUCost dma.CostModel
	// Sched is required for sim.Proposed and sim.GiottoDMAB.
	Sched    *dma.Schedule
	Protocol sim.Protocol
	Policy   sim.DegradePolicy
	// Hyperperiods per simulation run (default 1).
	Hyperperiods int
	// MaxSlowdownPermille caps the critical-slowdown search (default
	// 1024000, i.e. 1024x nominal copy cost). The search gallops up from
	// nominal, so its cost follows the margin, not the cap.
	MaxSlowdownPermille int64
	// Rates are the transient-error rates of the survival curve (default
	// 0.001, 0.01, 0.05, 0.1).
	Rates []float64
	// Trials is the number of seeded scenarios per rate (default 20).
	Trials int
	// Seed selects the scenario family; identical seeds give
	// byte-identical margins.
	Seed int64
	// Base is the fault model template for the survival trials; per
	// trial, Seed and ErrorRate are overridden.
	Base Model
}

func (cfg *MarginConfig) fill() {
	if cfg.CPUCost.CopyNsDen == 0 {
		// Resolved here, not by sim: scaling the zero model would leave
		// it zero, and sim would then replay the nominal CPU cost at
		// every slowdown.
		cfg.CPUCost = dma.CPUCopyCostModel()
	}
	if cfg.Hyperperiods == 0 {
		cfg.Hyperperiods = 1
	}
	if cfg.MaxSlowdownPermille == 0 {
		cfg.MaxSlowdownPermille = 1024000
	}
	if cfg.Rates == nil {
		cfg.Rates = []float64{0.001, 0.01, 0.05, 0.1}
	}
	if cfg.Trials == 0 {
		cfg.Trials = 20
	}
}

// SurvivalPoint is one point of the survival curve: how many of Trials
// seeded scenarios at ErrorRate=Rate completed without a deadline miss,
// Property-3 violation or halt, and how much data went stale doing so
// (the cost of surviving under the abort-transfer policy).
type SurvivalPoint struct {
	Rate     float64
	Survived int
	Trials   int
	// StaleComms totals the communications that served previous-cycle
	// values across all trials at this rate.
	StaleComms int
	// Retries totals the transient-error retries across all trials.
	Retries int
}

// Margin is the robustness report for one protocol.
type Margin struct {
	Protocol sim.Protocol
	Policy   sim.DegradePolicy
	// CriticalSlowdownPermille is the largest uniform copy-cost slowdown
	// (permille of nominal) that a fault-free run tolerates with zero
	// deadline misses and zero Property-3 violations. 0 means even the
	// nominal run fails; MaxSlowdownPermille means the search cap was
	// clean.
	CriticalSlowdownPermille int64
	// SearchReplays is the number of fault-free replays the
	// critical-slowdown search ran: 0 when the nominal transfer costs
	// already overrun a window, 1 when the largest spill-free slowdown
	// also meets every deadline, more only when deadline misses come
	// first. The survival curve adds len(Rates)*Trials more.
	SearchReplays int
	Survival      []SurvivalPoint
}

// scaleCost multiplies a cost model's per-byte copy cost by
// permille/1000, reducing the rational by its GCD to keep the numbers
// small and exact.
func scaleCost(cm dma.CostModel, permille int64) dma.CostModel {
	num := cm.CopyNsNum * permille
	den := cm.CopyNsDen * 1000
	if g := timeutil.GCD(num, den); g > 1 {
		num /= g
		den /= g
	}
	cm.CopyNsNum = num
	cm.CopyNsDen = den
	return cm
}

// simConfig builds the base sim.Config for this margin analysis.
func (cfg *MarginConfig) simConfig() sim.Config {
	return sim.Config{
		Analysis:     cfg.Analysis,
		Cost:         cfg.Cost,
		CPUCost:      cfg.CPUCost,
		Sched:        cfg.Sched,
		Protocol:     cfg.Protocol,
		Hyperperiods: cfg.Hyperperiods,
		Policy:       cfg.Policy,
	}
}

// replayer runs the replays of one margin analysis on a shared sim.Plan,
// so the effective schedule and the induced transfers of every instant
// are built once, not once per replay, and the plan's replay buffers are
// reused. The replays run one after another, as a Plan requires.
type replayer struct {
	cfg  *MarginConfig
	plan *sim.Plan
	// searchReplays counts the fault-free replays clean has run.
	searchReplays int
}

// newReplayer plans the replays of a filled cfg.
func newReplayer(cfg *MarginConfig) (*replayer, error) {
	plan, err := sim.NewPlan(cfg.simConfig())
	if err != nil {
		return nil, err
	}
	return &replayer{cfg: cfg, plan: plan}, nil
}

// slowed is the fault-free sim.Config with copies slowed to
// permille/1000 of nominal. Giotto-CPU performs its copies on the CPUs,
// so the interference slowdown applies to the CPU copy model there; the
// DMA protocols slow the engine.
func (r *replayer) slowed(permille int64) sim.Config {
	sc := r.cfg.simConfig()
	if r.cfg.Protocol == sim.GiottoCPU {
		sc.CPUCost = scaleCost(sc.CPUCost, permille)
	} else {
		sc.Cost = scaleCost(sc.Cost, permille)
	}
	return sc
}

// spillFree reports whether every communication sequence of the
// fault-free run at permille ends inside its window (Constraint 10). It
// sums transfer costs and replays nothing.
func (r *replayer) spillFree(permille int64) (bool, error) {
	spills, err := r.plan.Spills(r.slowed(permille))
	return !spills, err
}

// clean runs the protocol fault-free with copies slowed to
// permille/1000 of nominal and reports whether LET semantics held
// (zero deadline misses, zero Property-3 violations). A replay that
// spills a window is not clean, so it stops there, before the cores are
// scheduled.
func (r *replayer) clean(permille int64) (bool, error) {
	r.searchReplays++
	res, spilled, err := r.plan.RunUnlessSpilled(r.slowed(permille))
	if err != nil || spilled {
		return false, err
	}
	for _, task := range r.cfg.Analysis.Sys.Tasks {
		if res.Stats[task.ID].Misses > 0 {
			return false, nil
		}
	}
	return true, nil
}

// criticalSlowdown finds the largest uniform copy slowdown (permille) in
// [1000, MaxSlowdownPermille] whose fault-free run is clean. Failure is
// monotone in the slowdown for these replay semantics. A spill fails a
// run, and whether one occurs is Constraint 10 at the slowed cost model,
// so the search first finds ps, the largest spill-free slowdown, without
// a replay. If ps's run also meets every deadline, ps is the margin,
// since ps+1 spills: one replay. Otherwise deadline misses set in below
// ps, and the search replays its way to the boundary in [1000, ps).
func (r *replayer) criticalSlowdown() (int64, error) {
	const nominal = 1000
	ok, err := r.spillFree(nominal)
	if err != nil || !ok {
		return 0, err // the nominal transfer costs already overrun a window
	}
	ps, err := gallop(nominal, max(nominal, r.cfg.MaxSlowdownPermille), r.spillFree)
	if err != nil {
		return 0, err
	}
	if ok, err := r.clean(ps); err != nil || ok {
		return ps, err
	}
	if ps == nominal {
		return 0, nil // the nominal run misses a deadline
	}
	if ok, err := r.clean(nominal); err != nil || !ok {
		return 0, err
	}
	return gallop(nominal, ps-1, r.clean)
}

// gallop returns the largest p in [lo, hi] for which ok holds, given
// that ok(lo) holds and that ok, once false, stays false. It doubles lo
// until a probe fails or hi holds, then bisects the last doubling, so a
// boundary at m costs about log2(m/lo) + 2 probes plus log2(m/2): the
// cost follows the boundary, not hi.
func gallop(lo, hi int64, ok func(int64) (bool, error)) (int64, error) {
	for {
		if lo >= hi {
			return lo, nil
		}
		probe := hi
		if lo <= hi/2 {
			probe = 2 * lo
		}
		good, err := ok(probe)
		if err != nil {
			return 0, err
		}
		if !good {
			hi = probe
			break
		}
		lo = probe
	}
	// Bisect: lo holds and hi fails.
	for lo+1 < hi {
		mid := lo + (hi-lo)/2
		good, err := ok(mid)
		if err != nil {
			return 0, err
		}
		if good {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}

// trialSeed derives the fault-model seed of one (rate, trial) cell as a
// pure hash, so curves are identical regardless of evaluation order.
func trialSeed(seed int64, rateIdx, trial int) int64 {
	h := mix64(uint64(seed)*0x9E3779B97F4A7C15 + 0x53757276697665) // "Survive"
	h = mix64(h ^ uint64(rateIdx)<<32 ^ uint64(trial))
	return int64(h)
}

// survivalCurve runs Trials seeded fault scenarios at each error rate
// and counts the runs that finished with zero deadline misses, zero
// Property-3 violations and no halt.
func (r *replayer) survivalCurve() ([]SurvivalPoint, error) {
	cfg := r.cfg
	curve := make([]SurvivalPoint, len(cfg.Rates))
	for ri, rate := range cfg.Rates {
		pt := SurvivalPoint{Rate: rate, Trials: cfg.Trials}
		for trial := 0; trial < cfg.Trials; trial++ {
			m := cfg.Base
			m.Seed = trialSeed(cfg.Seed, ri, trial)
			m.ErrorRate = rate
			sc := cfg.simConfig()
			sc.Inject = &m
			res, err := r.plan.Run(sc)
			if err != nil {
				return nil, fmt.Errorf("faultsim: rate %g trial %d: %w", rate, trial, err)
			}
			pt.StaleComms += res.StaleComms
			pt.Retries += res.Retries
			if res.Property3Violations > 0 || res.Halted {
				continue
			}
			missed := false
			for _, task := range cfg.Analysis.Sys.Tasks {
				if res.Stats[task.ID].Misses > 0 {
					missed = true
					break
				}
			}
			if !missed {
				pt.Survived++
			}
		}
		curve[ri] = pt
	}
	return curve, nil
}

// ComputeMargin bundles the critical slowdown and the survival curve for
// one protocol into a Margin report. Both share one replay plan.
func ComputeMargin(cfg MarginConfig) (*Margin, error) {
	cfg.fill()
	r, err := newReplayer(&cfg)
	if err != nil {
		return nil, err
	}
	crit, err := r.criticalSlowdown()
	if err != nil {
		return nil, err
	}
	curve, err := r.survivalCurve()
	if err != nil {
		return nil, err
	}
	return &Margin{
		Protocol:                 cfg.Protocol,
		Policy:                   cfg.Policy,
		CriticalSlowdownPermille: crit,
		SearchReplays:            r.searchReplays,
		Survival:                 curve,
	}, nil
}
