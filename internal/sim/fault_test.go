package sim

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"letdma/internal/dma"
	"letdma/internal/timeutil"
	"letdma/internal/violation"
)

// scriptInjector is a deterministic injector driven by a verdict
// function, for pinpoint fault scenarios in tests.
type scriptInjector struct {
	retries int
	backoff timeutil.Time
	attempt func(t timeutil.Time, transfer, attempt int, nominal timeutil.Time) (timeutil.Time, FaultVerdict)
}

func (s *scriptInjector) Attempt(t timeutil.Time, transfer, attempt int, nominal timeutil.Time) (timeutil.Time, FaultVerdict) {
	if s.attempt == nil {
		return nominal, AttemptOK
	}
	return s.attempt(t, transfer, attempt, nominal)
}
func (s *scriptInjector) MaxRetries() int                   { return s.retries }
func (s *scriptInjector) Backoff(attempt int) timeutil.Time { return s.backoff }

func TestConfigValidation(t *testing.T) {
	a := chainSystem(t)
	cm := dma.DefaultCostModel()
	sched := optimizedSchedule(t, a)
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"nil analysis", Config{Cost: cm, Sched: sched}, "Analysis is nil"},
		{"negative hyperperiods", Config{Analysis: a, Cost: cm, Sched: sched, Hyperperiods: -2}, "negative Hyperperiods"},
		{"proposed without sched", Config{Analysis: a, Cost: cm, Protocol: Proposed}, "requires Config.Sched"},
		{"dma-b without sched", Config{Analysis: a, Cost: cm, Protocol: GiottoDMAB}, "requires Config.Sched"},
		{"unknown protocol", Config{Analysis: a, Cost: cm, Sched: sched, Protocol: Protocol(99)}, "unknown protocol"},
		{"zero cost model", Config{Analysis: a, Sched: sched, Protocol: Proposed}, "Config.Cost"},
		{"bad cpu cost", Config{Analysis: a, Cost: cm, Sched: sched, CPUCost: dma.CostModel{CopyNsNum: -1, CopyNsDen: 1}}, "Config.CPUCost"},
		{"negative retries", Config{Analysis: a, Cost: cm, Sched: sched, Inject: &scriptInjector{retries: -1}}, "MaxRetries"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Run(tc.cfg)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Run error = %v, want substring %q", err, tc.want)
			}
		})
	}
}

func TestParseDegradePolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want DegradePolicy
	}{
		{"abort", AbortTransfer}, {"abort-transfer", AbortTransfer},
		{"waitall", WaitAll}, {"wait-all", WaitAll},
		{"failfast", FailFast}, {"fail-fast", FailFast},
	} {
		got, err := ParseDegradePolicy(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseDegradePolicy(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	if _, err := ParseDegradePolicy("bogus"); err == nil {
		t.Error("ParseDegradePolicy(bogus) succeeded, want error")
	}
}

// TestFaultFreeInjectorMatchesNominal: an injector that never deviates
// must reproduce the nominal run exactly — same latencies, no
// violations, no degraded instants.
func TestFaultFreeInjectorMatchesNominal(t *testing.T) {
	a := chainSystem(t)
	cm := dma.DefaultCostModel()
	sched := optimizedSchedule(t, a)
	base := Config{Analysis: a, Cost: cm, Sched: sched, Protocol: Proposed, Hyperperiods: 2}
	nominal, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, policy := range []DegradePolicy{AbortTransfer, WaitAll, FailFast} {
		cfg := base
		cfg.Inject = &scriptInjector{retries: 3, backoff: us(10)}
		cfg.Policy = policy
		got, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Violations) != 0 || len(got.DegradedAt) != 0 || got.Halted {
			t.Fatalf("policy %v: fault-free injected run deviated: %d violations, %d degraded instants, halted=%v",
				policy, len(got.Violations), len(got.DegradedAt), got.Halted)
		}
		if !reflect.DeepEqual(got.LatencyAt, nominal.LatencyAt) {
			t.Fatalf("policy %v: latencies differ from the nominal run", policy)
		}
		if !reflect.DeepEqual(got.Stats, nominal.Stats) {
			t.Fatalf("policy %v: stats differ from the nominal run", policy)
		}
	}
}

// TestTransientRetryRecovers: one transient error on the first transfer
// of the first instant is absorbed by a retry; the run reports the retry
// and a degraded instant but no violations.
func TestTransientRetryRecovers(t *testing.T) {
	a := chainSystem(t)
	cm := dma.DefaultCostModel()
	sched := optimizedSchedule(t, a)
	inj := &scriptInjector{retries: 3, backoff: us(5), attempt: func(at timeutil.Time, transfer, attempt int, nominal timeutil.Time) (timeutil.Time, FaultVerdict) {
		if at == 0 && transfer == 0 && attempt == 0 {
			return nominal, AttemptTransient
		}
		return nominal, AttemptOK
	}}
	res, err := Run(Config{Analysis: a, Cost: cm, Sched: sched, Protocol: Proposed, Inject: inj})
	if err != nil {
		t.Fatal(err)
	}
	if res.Retries != 1 {
		t.Errorf("Retries = %d, want 1", res.Retries)
	}
	if len(res.Violations) != 0 {
		t.Errorf("recovered retry produced violations:\n%v", res.Violations)
	}
	if _, ok := slices.BinarySearch(res.DegradedAt, 0); !ok {
		t.Error("instant 0 not marked degraded despite a retry")
	}
	if res.AbortedTransfers != 0 || res.StaleComms != 0 || res.Halted {
		t.Errorf("unexpected hard-fault counters: aborted=%d stale=%d halted=%v",
			res.AbortedTransfers, res.StaleComms, res.Halted)
	}
}

// dropFirst injects a hard drop of the first transfer at t=0 only.
func dropFirst() *scriptInjector {
	return &scriptInjector{retries: 3, attempt: func(at timeutil.Time, transfer, attempt int, nominal timeutil.Time) (timeutil.Time, FaultVerdict) {
		if at == 0 && transfer == 0 {
			return 0, AttemptDropped
		}
		return nominal, AttemptOK
	}}
}

func TestHardDropAbortPolicy(t *testing.T) {
	a := chainSystem(t)
	cm := dma.DefaultCostModel()
	sched := optimizedSchedule(t, a)
	res, err := Run(Config{Analysis: a, Cost: cm, Sched: sched, Protocol: Proposed, Inject: dropFirst(), Policy: AbortTransfer})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Violations.Has(violation.RetryExhausted) {
		t.Errorf("missing retry-exhausted violation:\n%v", res.Violations)
	}
	if !res.Violations.Has(violation.StaleRead) {
		t.Errorf("missing stale-read violations:\n%v", res.Violations)
	}
	if res.AbortedTransfers != 1 || res.StaleComms == 0 {
		t.Errorf("aborted=%d stale=%d, want 1 aborted and stale comms", res.AbortedTransfers, res.StaleComms)
	}
	if res.Property3Violations != 0 {
		t.Errorf("abort policy spilled past the window: %d Property-3 violations", res.Property3Violations)
	}
	if res.Halted {
		t.Error("abort policy halted the run")
	}
	staleJobs := 0
	for _, task := range a.Sys.Tasks {
		staleJobs += res.Stats[task.ID].StaleReads
	}
	if staleJobs == 0 {
		t.Error("no task recorded a stale read despite a dropped transfer")
	}
}

func TestHardDropFailFast(t *testing.T) {
	a := chainSystem(t)
	cm := dma.DefaultCostModel()
	sched := optimizedSchedule(t, a)
	res, err := Run(Config{Analysis: a, Cost: cm, Sched: sched, Protocol: Proposed, Inject: dropFirst(), Policy: FailFast, Hyperperiods: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Halted || res.HaltedAt != 0 {
		t.Fatalf("Halted=%v HaltedAt=%v, want halt at t=0", res.Halted, res.HaltedAt)
	}
	if !res.Violations.Has(violation.RetryExhausted) {
		t.Errorf("missing retry-exhausted violation:\n%v", res.Violations)
	}
}

// TestRetryExhaustedWaitAll: a transfer that always fails transiently
// exhausts its budget; under wait-all every task released at the instant
// falls back to whole-sequence readiness.
func TestRetryExhaustedWaitAll(t *testing.T) {
	a := chainSystem(t)
	cm := dma.DefaultCostModel()
	sched := optimizedSchedule(t, a)
	inj := &scriptInjector{retries: 2, backoff: us(5), attempt: func(at timeutil.Time, transfer, attempt int, nominal timeutil.Time) (timeutil.Time, FaultVerdict) {
		if at == 0 && transfer == 0 {
			return nominal, AttemptTransient
		}
		return nominal, AttemptOK
	}}
	res, err := Run(Config{Analysis: a, Cost: cm, Sched: sched, Protocol: Proposed, Inject: inj, Policy: WaitAll})
	if err != nil {
		t.Fatal(err)
	}
	if res.Retries != 2 {
		t.Errorf("Retries = %d, want 2 (the full budget)", res.Retries)
	}
	if !res.Violations.Has(violation.RetryExhausted) {
		t.Errorf("missing retry-exhausted violation:\n%v", res.Violations)
	}
	// Under wait-all, every task released at t=0 shares one readiness: the
	// end of the (degraded) sequence.
	var ready []timeutil.Time
	for _, task := range a.Sys.Tasks {
		ready = append(ready, res.LatencyAt[task.ID][0])
	}
	for _, r := range ready[1:] {
		if r != ready[0] {
			t.Fatalf("wait-all readiness not uniform at t=0: %v", ready)
		}
	}
}

// TestOverrunWaitAllSpills: a massively inflated copy overruns the
// window under wait-all and is reported both as a Property-3 count and
// an overrun violation.
func TestOverrunWaitAllSpills(t *testing.T) {
	a := chainSystem(t)
	cm := dma.DefaultCostModel()
	sched := optimizedSchedule(t, a)
	inj := &scriptInjector{attempt: func(at timeutil.Time, transfer, attempt int, nominal timeutil.Time) (timeutil.Time, FaultVerdict) {
		if at == 0 && transfer == 0 {
			return nominal + ms(25), AttemptOK // past any window in the 20ms hyperperiod
		}
		return nominal, AttemptOK
	}}
	res, err := Run(Config{Analysis: a, Cost: cm, Sched: sched, Protocol: Proposed, Inject: inj, Policy: WaitAll})
	if err != nil {
		t.Fatal(err)
	}
	if res.Property3Violations == 0 {
		t.Error("overrun not counted as a Property-3 violation")
	}
	if !res.Violations.Has(violation.Overrun) {
		t.Errorf("missing overrun violation:\n%v", res.Violations)
	}
}

// TestOverrunAbortSkips: the same inflated copy under abort-transfer is
// skipped before it can spill, trading an overrun violation + stale
// labels for an intact Property 3.
func TestOverrunAbortSkips(t *testing.T) {
	a := chainSystem(t)
	cm := dma.DefaultCostModel()
	sched := optimizedSchedule(t, a)
	inj := &scriptInjector{attempt: func(at timeutil.Time, transfer, attempt int, nominal timeutil.Time) (timeutil.Time, FaultVerdict) {
		if at == 0 && transfer == 0 {
			return nominal + ms(25), AttemptOK
		}
		return nominal, AttemptOK
	}}
	res, err := Run(Config{Analysis: a, Cost: cm, Sched: sched, Protocol: Proposed, Inject: inj, Policy: AbortTransfer})
	if err != nil {
		t.Fatal(err)
	}
	if res.Property3Violations != 0 {
		t.Errorf("abort policy spilled: %d Property-3 violations", res.Property3Violations)
	}
	if !res.Violations.Has(violation.Overrun) || !res.Violations.Has(violation.StaleRead) {
		t.Errorf("want overrun + stale-read violations, got:\n%v", res.Violations)
	}
	if res.AbortedTransfers != 1 {
		t.Errorf("AbortedTransfers = %d, want 1", res.AbortedTransfers)
	}
}

// TestFaultedRunDeterministic: the same config replayed twice yields
// byte-identical violation lists and equal results.
func TestFaultedRunDeterministic(t *testing.T) {
	a := chainSystem(t)
	cm := dma.DefaultCostModel()
	sched := optimizedSchedule(t, a)
	inj := &scriptInjector{retries: 1, backoff: us(5), attempt: func(at timeutil.Time, transfer, attempt int, nominal timeutil.Time) (timeutil.Time, FaultVerdict) {
		if transfer == 0 && attempt == 0 {
			return nominal, AttemptTransient
		}
		return nominal, AttemptOK
	}}
	cfg := Config{Analysis: a, Cost: cm, Sched: sched, Protocol: Proposed, Inject: inj, Policy: AbortTransfer, Hyperperiods: 3}
	r1, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Violations.String() != r2.Violations.String() {
		t.Fatalf("violation lists differ between identical runs:\n%s\n---\n%s", r1.Violations, r2.Violations)
	}
	if !reflect.DeepEqual(r1.LatencyAt, r2.LatencyAt) || !reflect.DeepEqual(r1.Stats, r2.Stats) {
		t.Fatal("results differ between identical runs")
	}
}
