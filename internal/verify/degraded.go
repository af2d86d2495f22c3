package verify

import (
	"reflect"
	"slices"

	"letdma/internal/dma"
	"letdma/internal/faultsim"
	"letdma/internal/let"
	"letdma/internal/sim"
	"letdma/internal/timeutil"
	"letdma/internal/violation"
)

// allowedFaultCodes are the only violation kinds an injected-fault run
// may report: everything else coming out of a faulted replay means the
// simulator misclassified a deviation.
var allowedFaultCodes = map[violation.Code]bool{
	violation.Overrun:        true,
	violation.RetryExhausted: true,
	violation.StaleRead:      true,
}

// isIdentity reports whether a model injects nothing.
func isIdentity(m faultsim.Model) bool {
	return m.JitterPermille == 0 && m.BurstRate == 0 && m.ErrorRate == 0 &&
		m.DropRate == 0 && (m.SlowdownPermille == 0 || m.SlowdownPermille == 1000)
}

// CheckFaultedSim is the degraded-run oracle: it replays the proposed
// protocol under every given fault model and degradation policy and
// checks the graceful-degradation contract from first principles:
//
//   - a faulted run never errors (beyond config validation) — it always
//     terminates with a structured violation list;
//   - the identity model reproduces the nominal run exactly;
//   - every reported violation uses one of the fault codes (overrun,
//     retry-exhausted, stale-read);
//   - no silent deviation: a simulated latency may differ from the
//     analytic dma.Latency only at an instant the run declared degraded
//     (or past the halt point of a fail-fast run);
//   - under the abort-transfer policy Property 3 stays intact;
//   - identical configurations replay to byte-identical violation lists
//     and equal latencies (seeded-fault determinism).
func CheckFaultedSim(a *let.Analysis, cm dma.CostModel, sched *dma.Schedule, models []faultsim.Model, hyperperiods int) violation.List {
	var vs violation.List

	base := sim.Config{
		Analysis:     a,
		Cost:         cm,
		Sched:        sched,
		Protocol:     sim.Proposed,
		Hyperperiods: hyperperiods,
	}
	nominal, err := sim.Run(base)
	if err != nil {
		vs.Addf(violation.Simulation, "Section V", "faultsim: nominal run: %v", err)
		return vs
	}

	for mi := range models {
		for _, policy := range []sim.DegradePolicy{sim.AbortTransfer, sim.WaitAll, sim.FailFast} {
			m := models[mi]
			cfg := base
			cfg.Inject = &m
			cfg.Policy = policy
			tag := m.String() + "/" + policy.String()

			res, err := sim.Run(cfg)
			if err != nil {
				vs.Addf(violation.Simulation, "Section V (runtime)", "faultsim %s: %v", tag, err)
				continue
			}
			vs = append(vs, checkDegradedRun(a, cm, sched, nominal, res, models[mi], policy, tag)...)

			// Seeded-fault determinism: an identical replay must agree
			// byte-for-byte.
			m2 := models[mi]
			cfg2 := base
			cfg2.Inject = &m2
			cfg2.Policy = policy
			res2, err := sim.Run(cfg2)
			if err != nil {
				vs.Addf(violation.Simulation, "Section V (runtime)", "faultsim %s: replay: %v", tag, err)
				continue
			}
			if res.Violations.String() != res2.Violations.String() {
				vs.Addf(violation.Simulation, "Determinism",
					"faultsim %s: violation lists differ between identical replays", tag)
			}
			if !reflect.DeepEqual(res.LatencyAt, res2.LatencyAt) {
				vs.Addf(violation.Simulation, "Determinism",
					"faultsim %s: latencies differ between identical replays", tag)
			}
		}
	}
	return vs
}

// checkDegradedRun validates one faulted result against the
// graceful-degradation contract.
func checkDegradedRun(a *let.Analysis, cm dma.CostModel, sched *dma.Schedule, nominal, res *sim.Result, m faultsim.Model, policy sim.DegradePolicy, tag string) violation.List {
	var vs violation.List

	for _, v := range res.Violations {
		if !allowedFaultCodes[v.Code] {
			vs.Addf(violation.Simulation, "Section V (runtime)",
				"faultsim %s: unexpected violation code %q in a faulted run: %s", tag, v.Code, v.Detail)
		}
	}

	if isIdentity(m) {
		if len(res.Violations) != 0 || len(res.DegradedAt) != 0 || res.Halted {
			vs.Addf(violation.Simulation, "Section V (runtime)",
				"faultsim %s: identity model deviated (%d violations, %d degraded instants, halted=%v)",
				tag, len(res.Violations), len(res.DegradedAt), res.Halted)
		}
		if !reflect.DeepEqual(res.LatencyAt, nominal.LatencyAt) {
			vs.Addf(violation.Simulation, "Section V (runtime)",
				"faultsim %s: identity model changed the measured latencies", tag)
		}
	}

	if policy == sim.AbortTransfer && res.Property3Violations != 0 {
		vs.Addf(violation.Property3, "Constraint 10",
			"faultsim %s: abort-transfer run spilled past a window %d times", tag, res.Property3Violations)
	}
	if res.Halted && policy != sim.FailFast {
		vs.Addf(violation.Simulation, "Section V (runtime)",
			"faultsim %s: run halted under a non-fail-fast policy", tag)
	}

	// No silent deviation: a latency differing from the analytic value is
	// only legitimate at an instant the run declared degraded, or past a
	// declared halt.
	for _, task := range a.Sys.Tasks {
		for k, lat := range res.LatencyAt[task.ID] {
			rel := timeutil.Time(k) * task.Period
			if res.Halted && rel >= res.HaltedAt {
				continue
			}
			t0 := timeutil.Time(int64(rel) % int64(a.H))
			want := dma.Latency(a, cm, sched, t0, task.ID, dma.PerTaskReadiness)
			if _, degraded := slices.BinarySearch(res.DegradedAt, rel); lat != want && !degraded {
				vs.Addf(violation.Simulation, "Section V (runtime)",
					"faultsim %s: task %s released at %v deviates silently: simulated %v, analytic %v, instant not declared degraded",
					tag, task.Name, rel, lat, want)
			}
		}
	}
	return vs
}
