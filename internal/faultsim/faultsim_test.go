package faultsim

import (
	"reflect"
	"testing"

	"letdma/internal/combopt"
	"letdma/internal/dma"
	"letdma/internal/let"
	"letdma/internal/model"
	"letdma/internal/sim"
	"letdma/internal/timeutil"
	"letdma/internal/waters"
)

func ms(v int64) timeutil.Time { return timeutil.Milliseconds(v) }
func us(v int64) timeutil.Time { return timeutil.Microseconds(v) }

func testAnalysis(t *testing.T) (*let.Analysis, *dma.Schedule) {
	t.Helper()
	sys := model.NewSystem(2)
	prod := sys.MustAddTask("prod", ms(5), timeutil.Millisecond, 0)
	fast := sys.MustAddTask("fast", ms(10), timeutil.Millisecond, 1)
	slow := sys.MustAddTask("slow", ms(20), timeutil.Millisecond, 1)
	sys.MustAddLabel("lA", 64, prod, fast, slow)
	sys.MustAddLabel("lB", 32, fast, prod)
	sys.AssignRateMonotonicPriorities()
	a, err := let.Analyze(sys)
	if err != nil {
		t.Fatal(err)
	}
	res, err := combopt.Solve(a, dma.DefaultCostModel(), nil, dma.MinDelayRatio)
	if err != nil {
		t.Fatal(err)
	}
	return a, res.Sched
}

// TestZeroModelIsNominal: the zero-value Model must reproduce the
// nominal run exactly under every protocol and policy.
func TestZeroModelIsNominal(t *testing.T) {
	a, sched := testAnalysis(t)
	cm := dma.DefaultCostModel()
	for _, proto := range []sim.Protocol{sim.Proposed, sim.GiottoCPU, sim.GiottoDMAA, sim.GiottoDMAB} {
		base := sim.Config{Analysis: a, Cost: cm, Sched: sched, Protocol: proto, Hyperperiods: 2}
		nominal, err := sim.Run(base)
		if err != nil {
			t.Fatal(err)
		}
		cfg := base
		cfg.Inject = &Model{Seed: 42}
		got, err := sim.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Violations) != 0 || len(got.DegradedAt) != 0 {
			t.Fatalf("%v: zero model deviated: %d violations, %d degraded instants",
				proto, len(got.Violations), len(got.DegradedAt))
		}
		if !reflect.DeepEqual(got.LatencyAt, nominal.LatencyAt) || !reflect.DeepEqual(got.Stats, nominal.Stats) {
			t.Fatalf("%v: zero model changed the result", proto)
		}
	}
}

// TestAttemptDeterminism: draws are pure functions of the coordinates —
// evaluation order must not matter.
func TestAttemptDeterminism(t *testing.T) {
	m := &Model{Seed: 7, JitterPermille: 200, BurstRate: 0.3, BurstPermille: 2000, ErrorRate: 0.2, DropRate: 0.05, Retries: 3, BackoffBase: us(10)}
	type key struct {
		t        timeutil.Time
		transfer int
		attempt  int
	}
	first := make(map[key]timeutil.Time)
	verdicts := make(map[key]sim.FaultVerdict)
	for _, k := range []key{{0, 0, 0}, {ms(10), 2, 1}, {ms(5), 1, 0}, {0, 0, 1}} {
		d, v := m.Attempt(k.t, k.transfer, k.attempt, us(100))
		first[k] = d
		verdicts[k] = v
	}
	// Re-query in reverse order.
	for _, k := range []key{{0, 0, 1}, {ms(5), 1, 0}, {ms(10), 2, 1}, {0, 0, 0}} {
		d, v := m.Attempt(k.t, k.transfer, k.attempt, us(100))
		if d != first[k] || v != verdicts[k] {
			t.Fatalf("draw at %+v changed between queries: %v/%v then %v/%v", k, first[k], verdicts[k], d, v)
		}
	}
}

func TestSeedChangesPattern(t *testing.T) {
	m1 := &Model{Seed: 1, JitterPermille: 500}
	m2 := &Model{Seed: 2, JitterPermille: 500}
	same := true
	for g := 0; g < 16; g++ {
		d1, _ := m1.Attempt(ms(int64(g)), g, 0, us(1000))
		d2, _ := m2.Attempt(ms(int64(g)), g, 0, us(1000))
		if d1 != d2 {
			same = false
			break
		}
	}
	if same {
		t.Error("16 jitter draws identical across different seeds")
	}
}

func TestSlowdownScalesCopies(t *testing.T) {
	m := &Model{SlowdownPermille: 2500}
	d, v := m.Attempt(0, 0, 0, us(100))
	if v != sim.AttemptOK || d != us(250) {
		t.Errorf("Attempt under 2.5x slowdown = %v/%v, want 250us/OK", d, v)
	}
}

func TestBackoffExponential(t *testing.T) {
	m := &Model{BackoffBase: us(10)}
	for i, want := range []timeutil.Time{us(10), us(10), us(20), us(40), us(80)} {
		if got := m.Backoff(i); got != want {
			t.Errorf("Backoff(%d) = %v, want %v", i, got, want)
		}
	}
	z := &Model{}
	if z.Backoff(3) != 0 {
		t.Error("zero BackoffBase should give zero backoff")
	}
}

// TestFaultedRunsNeverPanic: a hostile model under every policy and
// protocol must terminate with structured violations, never panic.
func TestFaultedRunsNeverPanic(t *testing.T) {
	a, sched := testAnalysis(t)
	cm := dma.DefaultCostModel()
	chaos := Model{Seed: 3, JitterPermille: 2000, BurstRate: 0.5, BurstPermille: 4000, ErrorRate: 0.5, DropRate: 0.2, Retries: 2, BackoffBase: us(50), SlowdownPermille: 3000}
	for _, proto := range []sim.Protocol{sim.Proposed, sim.GiottoCPU, sim.GiottoDMAA, sim.GiottoDMAB} {
		for _, policy := range []sim.DegradePolicy{sim.AbortTransfer, sim.WaitAll, sim.FailFast} {
			m := chaos
			res, err := sim.Run(sim.Config{Analysis: a, Cost: cm, Sched: sched, Protocol: proto, Policy: policy, Inject: &m, Hyperperiods: 2})
			if err != nil {
				t.Fatalf("%v/%v: %v", proto, policy, err)
			}
			if len(res.Violations) == 0 {
				t.Errorf("%v/%v: chaos model produced no violations", proto, policy)
			}
			if policy == sim.AbortTransfer && res.Property3Violations != 0 {
				t.Errorf("%v/abort: %d Property-3 violations despite the abort policy", proto, res.Property3Violations)
			}
		}
	}
}

// testReplayer fills cfg and plans its replays, as ComputeMargin does.
func testReplayer(t *testing.T, cfg MarginConfig) *replayer {
	t.Helper()
	cfg.fill()
	r, err := newReplayer(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestCriticalSlowdownBounds(t *testing.T) {
	a, sched := testAnalysis(t)
	r := testReplayer(t, MarginConfig{
		Analysis: a, Cost: dma.DefaultCostModel(), Sched: sched,
		Protocol: sim.Proposed, MaxSlowdownPermille: 16000,
	})
	crit, err := r.criticalSlowdown()
	if err != nil {
		t.Fatal(err)
	}
	if crit < 1000 {
		t.Fatalf("critical slowdown %d < 1000: nominal run reported failing", crit)
	}
	// The boundary is exact: crit is clean, crit+1 (if below the cap) is not.
	ok, err := r.clean(crit)
	if err != nil || !ok {
		t.Fatalf("clean(%d) = %v, %v; want clean", crit, ok, err)
	}
	if crit < r.cfg.MaxSlowdownPermille {
		ok, err := r.clean(crit + 1)
		if err != nil || ok {
			t.Fatalf("clean(%d) = %v, %v; want failing just past the margin", crit+1, ok, err)
		}
	}
}

func TestSurvivalCurveDeterministic(t *testing.T) {
	a, sched := testAnalysis(t)
	cfg := MarginConfig{
		Analysis: a, Cost: dma.DefaultCostModel(), Sched: sched,
		Protocol: sim.Proposed, Policy: sim.AbortTransfer,
		Rates: []float64{0.01, 0.2}, Trials: 8, Seed: 11,
		Base: Model{JitterPermille: 100, Retries: 2, BackoffBase: us(10)},
	}
	c1, err := testReplayer(t, cfg).survivalCurve()
	if err != nil {
		t.Fatal(err)
	}
	c2, err := testReplayer(t, cfg).survivalCurve()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c1, c2) {
		t.Fatalf("survival curves differ between identical runs:\n%v\n%v", c1, c2)
	}
	for i, pt := range c1 {
		if pt.Trials != 8 {
			t.Errorf("point %d ran %d trials, want 8", i, pt.Trials)
		}
		if pt.Survived < 0 || pt.Survived > pt.Trials {
			t.Errorf("point %d survived %d of %d", i, pt.Survived, pt.Trials)
		}
	}
}

func TestComputeMarginAllProtocols(t *testing.T) {
	a, sched := testAnalysis(t)
	for _, proto := range []sim.Protocol{sim.Proposed, sim.GiottoCPU, sim.GiottoDMAA, sim.GiottoDMAB} {
		m, err := ComputeMargin(MarginConfig{
			Analysis: a, Cost: dma.DefaultCostModel(), Sched: sched,
			Protocol: proto, Rates: []float64{0.05}, Trials: 4, Seed: 5,
			MaxSlowdownPermille: 8000,
		})
		if err != nil {
			t.Fatalf("%v: %v", proto, err)
		}
		if m.CriticalSlowdownPermille < 1000 {
			t.Errorf("%v: critical slowdown %d, want >= 1000 on a feasible schedule", proto, m.CriticalSlowdownPermille)
		}
		if len(m.Survival) != 1 {
			t.Errorf("%v: %d survival points, want 1", proto, len(m.Survival))
		}
	}
}

// bisectSlowdown is the reference search: a plain bisection of
// [1000, MaxSlowdownPermille], probing both ends first.
func bisectSlowdown(t *testing.T, cfg MarginConfig) int64 {
	t.Helper()
	r := testReplayer(t, cfg)
	clean := func(permille int64) bool {
		ok, err := r.clean(permille)
		if err != nil {
			t.Fatal(err)
		}
		return ok
	}
	lo, hi := int64(1000), r.cfg.MaxSlowdownPermille
	switch {
	case !clean(lo):
		return 0
	case hi <= lo || clean(hi):
		return max(lo, hi)
	}
	for lo+1 < hi {
		mid := lo + (hi-lo)/2
		if clean(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// TestSearchReplaysOnWaters: on the case study the margin of every DMA
// protocol is spill-bound, so its search costs the one confirming
// replay, and Giotto-CPU's nominal CPU copies already overrun a window,
// so its search replays nothing.
func TestSearchReplaysOnWaters(t *testing.T) {
	a, err := waters.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	cm := dma.DefaultCostModel()
	solved, err := combopt.Solve(a, cm, nil, dma.MinDelayRatio)
	if err != nil {
		t.Fatal(err)
	}
	for _, proto := range []sim.Protocol{sim.Proposed, sim.GiottoCPU, sim.GiottoDMAA, sim.GiottoDMAB} {
		got, replays := SearchSlowdown(t, MarginConfig{Analysis: a, Cost: cm, Sched: solved.Sched, Protocol: proto})
		want := 1
		if proto == sim.GiottoCPU {
			want = 0
			if got != 0 {
				t.Errorf("%v: critical slowdown %d, want 0", proto, got)
			}
		}
		if replays != want {
			t.Errorf("%v: the search ran %d replays, want %d", proto, replays, want)
		}
	}
}
