// Robustness experiment: a new evaluation axis beyond the paper. For one
// system it solves the proposed schedule, then measures how much platform
// degradation each protocol tolerates — the critical uniform DMA slowdown
// and the per-fault-rate survival curve of faultsim — and renders the
// comparison as a table in the style of Table I. All fields of the report
// are deterministic functions of the seed, so the rendered table is
// byte-stable and CI can diff it against a golden file.
package experiments

import (
	"fmt"
	"io"

	"letdma/internal/dma"
	"letdma/internal/faultsim"
	"letdma/internal/let"
	"letdma/internal/sim"
	"letdma/internal/timeutil"
)

// RobustnessConfig parameterizes the robustness experiment on top of the
// base solver Config.
type RobustnessConfig struct {
	// Seed selects the fault-scenario family (identical seeds give
	// byte-identical reports).
	Seed int64
	// Policy is the degradation policy under test.
	Policy sim.DegradePolicy
	// Rates are the transient-error rates of the survival sweep (default
	// 0.001, 0.01, 0.05, 0.1).
	Rates []float64
	// Trials per rate (default 20).
	Trials int
	// Hyperperiods per simulation run (default 1).
	Hyperperiods int
	// MaxSlowdownPermille caps the critical-slowdown search (default
	// 1024000, i.e. 1024x).
	MaxSlowdownPermille int64
	// Base is the fault-model template; its Seed and ErrorRate are
	// overridden per trial. The zero value enables jitter-free pure
	// transient errors with a 3-retry, 10us-backoff budget.
	Base *faultsim.Model
}

func (rc *RobustnessConfig) fill() {
	if rc.Rates == nil {
		rc.Rates = []float64{0.001, 0.01, 0.05, 0.1}
	}
	if rc.Trials == 0 {
		rc.Trials = 20
	}
	if rc.Hyperperiods == 0 {
		rc.Hyperperiods = 1
	}
	if rc.MaxSlowdownPermille == 0 {
		rc.MaxSlowdownPermille = 1024000
	}
	if rc.Base == nil {
		rc.Base = &faultsim.Model{
			JitterPermille: 50,
			BurstRate:      0.05,
			BurstPermille:  2000,
			Retries:        3,
			BackoffBase:    timeutil.Microseconds(10),
		}
	}
}

// RobustnessResult is the margin comparison across the four protocols.
type RobustnessResult struct {
	Seed    int64
	Policy  sim.DegradePolicy
	Rates   []float64
	Margins []*faultsim.Margin // one per protocol, Proposed first
	Solved  *Solved
}

// robustProtocols is the fixed row order of the report.
var robustProtocols = []sim.Protocol{sim.Proposed, sim.GiottoCPU, sim.GiottoDMAA, sim.GiottoDMAB}

// Robustness solves the proposed schedule once and computes the
// robustness margin of every protocol under the same seeded fault
// scenarios, in the fixed row order of robustProtocols.
func Robustness(a *let.Analysis, cfg Config, rcfg RobustnessConfig) (*RobustnessResult, error) {
	rcfg.fill()
	solved, err := SolveProposed(a, cfg)
	if err != nil {
		return nil, err
	}
	out := &RobustnessResult{
		Seed:   rcfg.Seed,
		Policy: rcfg.Policy,
		Rates:  rcfg.Rates,
		Solved: solved,
	}
	for _, proto := range robustProtocols {
		mc := faultsim.MarginConfig{
			Analysis:            a,
			Cost:                dma.DefaultCostModel(),
			CPUCost:             dma.CPUCopyCostModel(),
			Protocol:            proto,
			Policy:              rcfg.Policy,
			Hyperperiods:        rcfg.Hyperperiods,
			MaxSlowdownPermille: rcfg.MaxSlowdownPermille,
			Rates:               rcfg.Rates,
			Trials:              rcfg.Trials,
			Seed:                rcfg.Seed,
			Base:                *rcfg.Base,
		}
		if proto == sim.Proposed || proto == sim.GiottoDMAB {
			mc.Sched = solved.Sched
		}
		m, err := faultsim.ComputeMargin(mc)
		if err != nil {
			return nil, fmt.Errorf("experiments: robustness %v: %w", proto, err)
		}
		out.Margins = append(out.Margins, m)
	}
	return out, nil
}

// RenderRobustness prints the margin comparison as an aligned text
// table. It deliberately contains no wall-clock fields: the output is a
// pure function of (system, seed, policy, rates, trials), so CI diffs it
// against a golden file.
func RenderRobustness(w io.Writer, r *RobustnessResult) error {
	ew := &errWriter{w: w}
	ew.printf("Robustness margins: policy=%s seed=%d trials=%d (%d transfers at s0)\n",
		r.Policy, r.Seed, trialsOf(r), r.Solved.NumTransfers)
	ew.printf("%-14s %12s", "protocol", "crit.slowdown")
	for _, rate := range r.Rates {
		ew.printf(" %18s", fmt.Sprintf("survive@%.3g", rate))
	}
	ew.newline()
	for _, m := range r.Margins {
		ew.printf("%-14s %11.3fx", m.Protocol, float64(m.CriticalSlowdownPermille)/1000)
		for _, pt := range m.Survival {
			ew.printf(" %18s", fmt.Sprintf("%d/%d (stale %d)", pt.Survived, pt.Trials, pt.StaleComms))
		}
		ew.newline()
	}
	return ew.err
}

func trialsOf(r *RobustnessResult) int {
	if len(r.Margins) == 0 || len(r.Margins[0].Survival) == 0 {
		return 0
	}
	return r.Margins[0].Survival[0].Trials
}

// WriteRobustnessCSV emits the report in machine-readable form:
// protocol,crit_slowdown_permille,rate,survived,trials — one row per
// (protocol, rate) pair.
func WriteRobustnessCSV(w io.Writer, r *RobustnessResult) error {
	ew := &errWriter{w: w}
	ew.printf("protocol,policy,seed,crit_slowdown_permille,rate,survived,trials,stale_comms,retries\n")
	for _, m := range r.Margins {
		for _, pt := range m.Survival {
			ew.printf("%s,%s,%d,%d,%g,%d,%d,%d,%d\n",
				m.Protocol, r.Policy, r.Seed, m.CriticalSlowdownPermille, pt.Rate, pt.Survived, pt.Trials, pt.StaleComms, pt.Retries)
		}
	}
	return ew.err
}
