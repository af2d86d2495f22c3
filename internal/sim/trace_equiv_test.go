package sim_test

import (
	"reflect"
	"testing"

	"letdma/internal/combopt"
	"letdma/internal/dma"
	"letdma/internal/faultsim"
	"letdma/internal/let"
	"letdma/internal/sim"
	"letdma/internal/timeutil"
	"letdma/internal/trace"
	"letdma/internal/violation"
	"letdma/internal/waters"
)

// TestTraceDoesNotChangeResult: tracing is observation only. Transfer
// names and execution segments are built only for a non-nil Trace, so a
// traced and an untraced replay must return deep-equal Results under
// every protocol and policy, nominal and faulted.
func TestTraceDoesNotChangeResult(t *testing.T) {
	a, err := let.Analyze(waters.Lite())
	if err != nil {
		t.Fatal(err)
	}
	cm := dma.DefaultCostModel()
	solved, err := combopt.Solve(a, cm, nil, dma.MinDelayRatio)
	if err != nil {
		t.Fatal(err)
	}
	faulty := faultsim.Model{Seed: 3, JitterPermille: 500, BurstRate: 0.3, BurstPermille: 3000,
		ErrorRate: 0.3, DropRate: 0.1, Retries: 1, BackoffBase: timeutil.Microseconds(20)}
	for _, proto := range []sim.Protocol{sim.Proposed, sim.GiottoCPU, sim.GiottoDMAA, sim.GiottoDMAB} {
		for _, policy := range []sim.DegradePolicy{sim.AbortTransfer, sim.WaitAll, sim.FailFast} {
			for _, inject := range []bool{false, true} {
				cfg := sim.Config{Analysis: a, Cost: cm, Sched: solved.Sched, Protocol: proto, Policy: policy, Hyperperiods: 2}
				if inject {
					m := faulty
					cfg.Inject = &m
				}
				plain, err := sim.Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Trace = &trace.Trace{}
				traced, err := sim.Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if len(cfg.Trace.Events) == 0 {
					t.Fatalf("%v/%v inject=%v: traced run recorded no events", proto, policy, inject)
				}
				if !reflect.DeepEqual(plain, traced) {
					t.Fatalf("%v/%v inject=%v: Result differs between traced and untraced replays", proto, policy, inject)
				}
				if inject && len(plain.Violations) == 0 {
					t.Fatalf("%v/%v: faulting model produced no violations", proto, policy)
				}
			}
		}
	}

	// Violation messages still name their transfer even though untraced
	// replays never build names for transfers that complete.
	m := faulty
	res, err := sim.Run(sim.Config{Analysis: a, Cost: cm, Sched: solved.Sched, Protocol: sim.Proposed, Inject: &m})
	if err != nil {
		t.Fatal(err)
	}
	var dropped, stale string
	for _, v := range res.Violations {
		switch {
		case dropped == "" && v.Code == violation.RetryExhausted:
			dropped = v.Detail
		case stale == "" && v.Code == violation.StaleRead:
			stale = v.Detail
		}
	}
	if want := "transfer d4@0 hard-dropped by the DMA engine"; dropped != want {
		t.Errorf("first drop reads %q, want %q", dropped, want)
	}
	if want := "R(sfm_dasm, DASM) at t=0 reads the previous-cycle value (transfer d4@0 did not complete)"; stale != want {
		t.Errorf("first stale read reads %q, want %q", stale, want)
	}
}
