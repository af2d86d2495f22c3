package waters

import (
	"bytes"
	"math/rand"
	"testing"

	"letdma/internal/combopt"
	"letdma/internal/dma"
	"letdma/internal/let"
	"letdma/internal/model"
	"letdma/internal/rta"
	"letdma/internal/timeutil"
)

func TestSystemShape(t *testing.T) {
	sys := System()
	if err := sys.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(sys.Tasks) != 9 {
		t.Errorf("tasks = %d, want 9", len(sys.Tasks))
	}
	for _, name := range TaskNames {
		if sys.TaskByName(name) == nil {
			t.Errorf("task %s missing", name)
		}
	}
	h, err := sys.Hyperperiod()
	if err != nil {
		t.Fatal(err)
	}
	if h != timeutil.Milliseconds(13200) {
		t.Errorf("hyperperiod = %v, want 13200ms", h)
	}
	// Ten inter-core shared labels; the two intra-core ones are excluded.
	if got := len(sys.SharedLabels()); got != 10 {
		t.Errorf("shared labels = %d, want 10", got)
	}
	for c := 0; c < sys.NumCores; c++ {
		if u := sys.Utilization(model.CoreID(c)); u >= 1 {
			t.Errorf("core %d over-utilized: %.2f", c, u)
		}
	}
}

func TestAnalyze(t *testing.T) {
	a, err := Analyze()
	if err != nil {
		t.Fatal(err)
	}
	// 10 writes + 10 reads (one consumer per label).
	if a.NumComms() != 20 {
		t.Errorf("comms = %d, want 20", a.NumComms())
	}
	if err := a.SubsetProperty(); err != nil {
		t.Error(err)
	}
	if a.Instants()[0] != 0 {
		t.Error("first instant must be s0")
	}
}

func TestWatersFeasibleAtAlpha02(t *testing.T) {
	a, err := Analyze()
	if err != nil {
		t.Fatal(err)
	}
	cm := dma.DefaultCostModel()
	intf := rta.LETDemand(a, cm, dma.GiottoPerCommSchedule(a))
	gamma, err := rta.Gammas(a, intf, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := combopt.Solve(a, cm, gamma, dma.NoObjective)
	if err != nil {
		t.Fatalf("alpha=0.2 should be feasible: %v", err)
	}
	if err := dma.Validate(a, cm, res.Layout, res.Sched, gamma); err != nil {
		t.Fatal(err)
	}
}

func TestWatersInfeasibleAtAlpha01(t *testing.T) {
	a, err := Analyze()
	if err != nil {
		t.Fatal(err)
	}
	cm := dma.DefaultCostModel()
	intf := rta.LETDemand(a, cm, dma.GiottoPerCommSchedule(a))
	gamma, err := rta.Gammas(a, intf, 0.1)
	if err != nil {
		// Either the gamma assignment itself fails...
		return
	}
	// ...or no feasible schedule exists, reproducing the paper's alpha=0.1
	// infeasibility.
	if _, err := combopt.Solve(a, cm, gamma, dma.NoObjective); err == nil {
		t.Error("alpha=0.1 should be infeasible (as in the paper)")
	}
}

func TestLite(t *testing.T) {
	sys := Lite()
	if err := sys.Validate(); err != nil {
		t.Fatal(err)
	}
	a, err := let.Analyze(sys)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumComms() != 8 {
		t.Errorf("lite comms = %d, want 8", a.NumComms())
	}
	if _, err := combopt.Solve(a, dma.DefaultCostModel(), nil, dma.MinDelayRatio); err != nil {
		t.Fatal(err)
	}
}

func TestRandomGenerator(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 30; i++ {
		sys := Random(rng, RandomOptions{})
		if err := sys.Validate(); err != nil {
			t.Fatalf("trial %d: %v", i, err)
		}
		if len(sys.SharedLabels()) == 0 {
			t.Fatalf("trial %d: generator must guarantee inter-core labels", i)
		}
		if _, err := let.Analyze(sys); err != nil {
			t.Fatalf("trial %d: %v", i, err)
		}
	}
}

func TestAutomotiveGenerator(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	validPeriods := map[timeutil.Time]bool{}
	for _, ms := range []int64{1, 2, 5, 10, 20, 50, 100, 200, 1000} {
		validPeriods[timeutil.Milliseconds(ms)] = true
	}
	for trial := 0; trial < 15; trial++ {
		sys := Automotive(rng, AutomotiveOptions{})
		if err := sys.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, task := range sys.Tasks {
			if !validPeriods[task.Period] {
				t.Fatalf("trial %d: period %v outside the KDB set", trial, task.Period)
			}
		}
		for c := 0; c < sys.NumCores; c++ {
			if u := sys.Utilization(model.CoreID(c)); u > 0.75 {
				t.Errorf("trial %d: core %d utilization %.2f far above target", trial, c, u)
			}
		}
		if len(sys.SharedLabels()) == 0 {
			t.Fatalf("trial %d: no inter-core labels", trial)
		}
		h, err := sys.Hyperperiod()
		if err != nil || h > timeutil.Seconds(1) {
			t.Fatalf("trial %d: hyperperiod %v (err %v)", trial, h, err)
		}
		if _, err := let.Analyze(sys); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// TestAutomotiveDeterministic: one seed generates byte-identical systems
// on every call, so the automotive campaign rows are reproducible.
func TestAutomotiveDeterministic(t *testing.T) {
	gen := func() string {
		var buf bytes.Buffer
		if err := Automotive(rand.New(rand.NewSource(1)), AutomotiveOptions{}).ToJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	want := gen()
	for i := 0; i < 20; i++ {
		if got := gen(); got != want {
			t.Fatalf("call %d generated a different system for the same seed", i)
		}
	}
}

func TestAutomotiveSolvable(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	solved := 0
	for trial := 0; trial < 10; trial++ {
		sys := Automotive(rng, AutomotiveOptions{Tasks: 8, Labels: 8})
		a, err := let.Analyze(sys)
		if err != nil {
			t.Fatal(err)
		}
		res, err := combopt.Solve(a, dma.DefaultCostModel(), nil, dma.MinDelayRatio)
		if err != nil {
			continue // tight 1ms tasks can make Property 3 genuinely infeasible
		}
		if err := dma.Validate(a, dma.DefaultCostModel(), res.Layout, res.Sched, nil); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		solved++
	}
	if solved < 5 {
		t.Fatalf("only %d/10 automotive systems solvable", solved)
	}
}
