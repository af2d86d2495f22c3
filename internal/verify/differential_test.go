package verify

import (
	"testing"
	"time"

	"letdma/internal/let"
	"letdma/internal/sysgen"
)

// quickOpts keeps unit-test differential runs fast: tiny MILP budget,
// modest enumeration, one simulated hyperperiod.
func quickOpts() Options {
	return Options{
		MILPTimeLimit:    5 * time.Second,
		MILPMaxComms:     4,
		ExhaustiveBudget: 5_000,
		SimHyperperiods:  1,
	}
}

// TestCheckScenarioFamilies: every generator family comes out of the full
// differential pipeline with zero violations, and the degenerate and
// infeasible families exercise their dedicated paths.
func TestCheckScenarioFamilies(t *testing.T) {
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, f := range sysgen.Families() {
		for _, seed := range seeds {
			sc, err := sysgen.Generate(seed, f)
			if err != nil {
				t.Fatal(err)
			}
			rep := CheckScenario(sc, quickOpts())
			if len(rep.Violations) != 0 {
				t.Errorf("%s: %d violations:\n%s", sc.Name, len(rep.Violations), rep.Violations)
			}
			if len(rep.Paths) == 0 || rep.Paths[0] != "oracle" {
				t.Errorf("%s: oracle did not run (paths %v)", sc.Name, rep.Paths)
			}
			if !sc.ExpectNoComm && rep.NumComms == 0 {
				t.Errorf("%s: no communications analyzed", sc.Name)
			}
		}
	}
}

// TestCheckScenarioInfeasibleAgreement: on saturated odd seeds (capacity
// one byte short) every solver path must agree on infeasibility — the
// report stays clean precisely because they do.
func TestCheckScenarioInfeasibleAgreement(t *testing.T) {
	for seed := int64(1); seed <= 5; seed += 2 {
		sc, err := sysgen.Generate(seed, sysgen.Saturated)
		if err != nil {
			t.Fatal(err)
		}
		if !sc.ExpectInfeasible {
			t.Fatalf("%s: odd seed not marked infeasible", sc.Name)
		}
		rep := CheckScenario(sc, quickOpts())
		if len(rep.Violations) != 0 {
			t.Errorf("%s: %s", sc.Name, rep.Violations)
		}
	}
}

// TestReportPathsRecorded: tiny instances run all five paths, so a clean
// report genuinely covers every cross-check.
func TestReportPathsRecorded(t *testing.T) {
	sc, err := sysgen.Generate(3, sysgen.Stars)
	if err != nil {
		t.Fatal(err)
	}
	a, err := let.Analyze(sc.Sys)
	if err != nil {
		t.Fatal(err)
	}
	opts := quickOpts()
	rep := CheckScenario(sc, opts)
	want := map[string]bool{"oracle": true, "combopt": true}
	if a.NumComms() <= opts.MILPMaxComms {
		want["milp"] = true
	}
	for _, p := range rep.Paths {
		delete(want, p)
	}
	for missing := range want {
		t.Errorf("%s: path %q did not run (ran: %v)", sc.Name, missing, rep.Paths)
	}
}
