package faultsim_test

import (
	"testing"

	"letdma/internal/combopt"
	"letdma/internal/dma"
	"letdma/internal/faultsim"
	"letdma/internal/let"
	"letdma/internal/sim"
	"letdma/internal/sysgen"
	"letdma/internal/waters"
)

type system struct {
	name  string
	a     *let.Analysis
	sched *dma.Schedule
}

// searchCorpus returns WATERS-lite and six seeds of every sysgen family
// that analyze and solve, each with its combinatorial OBJ-DEL schedule.
func searchCorpus(t *testing.T) []system {
	t.Helper()
	lite, err := let.Analyze(waters.Lite())
	if err != nil {
		t.Fatal(err)
	}
	as := []system{{name: "lite", a: lite}}
	scs, err := sysgen.GenerateN(1, 6*len(sysgen.Families()))
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
			if i == 0 {
				t.Fatal(err)
			}
			continue
		}
		s.sched = res.Sched
		out = append(out, s)
	}
	return out
}

// TestCriticalSlowdownMatchesBisection: the search — the spill-free
// bound from the transfer costs, one confirming replay, the replay
// fallback — must find exactly the boundary a plain bisection of replays
// finds, for every protocol on lite and the sysgen corpus, with caps at
// nominal, between nominal and the margin, and far above it. The corpus
// must hold both spill-bound margins, which cost one replay, and margins
// set by deadline misses below the spill bound.
func TestCriticalSlowdownMatchesBisection(t *testing.T) {
	const wide = 1024000
	spillBound, missBound := 0, 0
	for _, s := range searchCorpus(t) {
		for _, proto := range []sim.Protocol{sim.Proposed, sim.GiottoCPU, sim.GiottoDMAA, sim.GiottoDMAB} {
			cfg := faultsim.MarginConfig{Analysis: s.a, Cost: dma.DefaultCostModel(), Sched: s.sched, Protocol: proto, MaxSlowdownPermille: wide}
			caps := []int64{1000, wide}
			if s.name == "lite" {
				caps = []int64{1000, 1500, 2000, 8000, 16000, wide}
			} else if margin := faultsim.BisectSlowdown(t, cfg); margin > 1001 {
				caps = append(caps, (1000+margin)/2)
			}
			for _, limit := range caps {
				cfg.MaxSlowdownPermille = limit
				got, replays := faultsim.SearchSlowdown(t, cfg)
				if want := faultsim.BisectSlowdown(t, cfg); got != want {
					t.Errorf("%s/%v cap %d: search found %d, bisection %d", s.name, proto, limit, got, want)
				}
				if limit != wide || got == 0 {
					continue
				}
				if got == limit {
					// Every lite margin lies below the widest cap; a zero
					// CPUCost must default to the CPU copy model, not stay
					// unscaled. Some sysgen systems move too few bytes to
					// spill below it.
					if s.name == "lite" {
						t.Errorf("%s/%v: search hit the %d cap", s.name, proto, limit)
					}
					continue
				}
				if replays == 1 {
					spillBound++
				} else {
					missBound++
				}
			}
		}
	}
	if spillBound == 0 || missBound == 0 {
		t.Errorf("%d spill-bound and %d miss-bound margins: the corpus must hold both", spillBound, missBound)
	}
}
