package verify

import (
	"math"
	"strings"
	"testing"
	"time"

	"letdma/internal/dma"
	"letdma/internal/let"
	"letdma/internal/letopt"
	"letdma/internal/milp"
	"letdma/internal/sysgen"
	"letdma/internal/violation"
)

// optimalFixture solves one deep-ties scenario to proven optimality with
// the deterministic engine, returning everything CheckOptimal needs. The
// deep-ties family is chosen deliberately: its near-tie symmetry is the
// regime the FastSearch certification exists for.
func optimalFixture(t *testing.T) (*let.Analysis, dma.CostModel, dma.Deadlines, dma.Objective, *letopt.Result) {
	t.Helper()
	cm := dma.DefaultCostModel()
	_, a := familyRepresentative(t, sysgen.DeepTies)
	if a == nil {
		t.Fatal("deep-ties representative has no communications")
	}
	gamma := deriveGamma(a, cm, 0.2)
	obj := dma.MinTransfers
	res, err := letopt.Solve(a, cm, gamma, obj, letopt.Options{
		MILP: milp.Params{TimeLimit: 30 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != milp.StatusOptimal {
		t.Fatalf("fixture solve status %s, want optimal", res.Status)
	}
	return a, cm, gamma, obj, res
}

// TestCheckOptimalCertifiesFastSearch: a genuine FastSearch solve of the
// tie-heavy fixture passes the full certificate — incumbent replay,
// objective recomputation, gap closure and the deterministic cross-check
// — at several worker counts.
func TestCheckOptimalCertifiesFastSearch(t *testing.T) {
	a, cm, gamma, obj, det := optimalFixture(t)
	for _, workers := range []int{1, 4} {
		fast, err := letopt.Solve(a, cm, gamma, obj, letopt.Options{
			MILP: milp.Params{TimeLimit: 30 * time.Second, Workers: workers, FastSearch: true},
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if vs := CheckOptimal(a, cm, gamma, obj, fast, OptimalOptions{Reference: det}); len(vs) != 0 {
			t.Fatalf("workers=%d: certificate rejected a correct FastSearch result:\n%s", workers, vs)
		}
	}
	// Reference omitted: CheckOptimal must run its own cold re-solve and
	// reach the same verdict.
	fast, err := letopt.Solve(a, cm, gamma, obj, letopt.Options{
		MILP: milp.Params{TimeLimit: 30 * time.Second, FastSearch: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if vs := CheckOptimal(a, cm, gamma, obj, fast, OptimalOptions{}); len(vs) != 0 {
		t.Fatalf("self-resolving certificate rejected a correct result:\n%s", vs)
	}
}

// TestCheckOptimalReferenceIsCold: CheckOptimal's own re-solve must stay on
// the cold two-phase path, so the certificate shares no LP code path with the
// warm-expanded FastSearch result it audits — and it must still prove the
// same optimum as the (warm) deterministic fixture solve.
func TestCheckOptimalReferenceIsCold(t *testing.T) {
	a, cm, gamma, obj, det := optimalFixture(t)
	ref, err := referenceSolve(a, cm, gamma, obj, OptimalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if k := ref.Kernel; k.WarmAttempts != 0 || k.WarmExpands != 0 {
		t.Fatalf("reference solve used the warm path: %+v", k)
	}
	if det.Kernel.WarmExpands == 0 {
		t.Fatalf("fixture solve never warm-expanded a node, so the contrast is vacuous: %+v", det.Kernel)
	}
	if ref.Status != det.Status || math.Float64bits(ref.Objective) != math.Float64bits(det.Objective) {
		t.Fatalf("cold reference %s/%v, warm fixture %s/%v", ref.Status, ref.Objective, det.Status, det.Objective)
	}
}

// TestCheckOptimalRejectsCorrupted feeds CheckOptimal deliberately
// corrupted incumbents — the bugs a nondeterministic engine could
// actually ship — and requires a structured violation naming each one.
// The corruptions are applied to copies of a genuinely optimal result,
// so every rejection is attributable to the single seeded defect.
func TestCheckOptimalRejectsCorrupted(t *testing.T) {
	a, cm, gamma, obj, det := optimalFixture(t)
	opts := OptimalOptions{Reference: det}

	// copyResult deep-copies the schedule so mutations cannot leak
	// between subtests (the layout is shared: no subtest mutates it).
	copyResult := func() *letopt.Result {
		r := *det
		sched := &dma.Schedule{Transfers: make([]dma.Transfer, len(det.Sched.Transfers))}
		for i, tr := range det.Sched.Transfers {
			sched.Transfers[i] = dma.Transfer{Comms: append([]int(nil), tr.Comms...)}
		}
		r.Sched = sched
		return &r
	}

	t.Run("stale objective", func(t *testing.T) {
		r := copyResult()
		r.Objective++ // engine reports a value its own schedule does not attain
		vs := CheckOptimal(a, cm, gamma, obj, r, opts)
		if !vs.Has(violation.Objective) {
			t.Fatalf("stale objective not rejected: %s", vs)
		}
		if !containsDetail(vs, "oracle recomputes") {
			t.Fatalf("rejection does not name the self-report mismatch: %s", vs)
		}
	})

	t.Run("off-by-one slot", func(t *testing.T) {
		r := copyResult()
		// Split the last communication of the first transfer into a slot
		// of its own: still a partition of C(s0), but a different (and,
		// under OBJ-DMAT, strictly worse) schedule than the one whose
		// objective the result reports.
		tr := &r.Sched.Transfers[0]
		if len(tr.Comms) < 2 {
			// A singleton transfer cannot be split; move it onto the next
			// transfer's slot instead, merging two transfer classes.
			r.Sched.Transfers[1].Comms = append(r.Sched.Transfers[1].Comms, tr.Comms...)
			r.Sched.Transfers = r.Sched.Transfers[1:]
		} else {
			z := tr.Comms[len(tr.Comms)-1]
			tr.Comms = tr.Comms[:len(tr.Comms)-1]
			r.Sched.Transfers = append(r.Sched.Transfers, dma.Transfer{Comms: []int{z}})
		}
		vs := CheckOptimal(a, cm, gamma, obj, r, opts)
		if len(vs) == 0 {
			t.Fatal("off-by-one slot accepted")
		}
		if !vs.Has(violation.Objective) {
			t.Fatalf("slot shift not caught as an objective inconsistency: %s", vs)
		}
	})

	t.Run("infeasible schedule", func(t *testing.T) {
		r := copyResult()
		// Duplicate the first communication into a trailing transfer: the
		// schedule is no longer a partition of C(s0) (Constraint 1).
		z := r.Sched.Transfers[0].Comms[0]
		r.Sched.Transfers = append(r.Sched.Transfers, dma.Transfer{Comms: []int{z}})
		vs := CheckOptimal(a, cm, gamma, obj, r, opts)
		if !vs.Has(violation.Partition) {
			t.Fatalf("duplicated communication not rejected as a partition violation: %s", vs)
		}
	})

	t.Run("missing incumbent", func(t *testing.T) {
		r := *det
		r.Layout, r.Sched = nil, nil
		vs := CheckOptimal(a, cm, gamma, obj, &r, opts)
		if !vs.Has(violation.Objective) {
			t.Fatalf("optimal status without an incumbent accepted: %s", vs)
		}
	})

	t.Run("wrong status", func(t *testing.T) {
		r := copyResult()
		r.Status = milp.StatusInfeasible
		r.Layout, r.Sched = nil, nil
		vs := CheckOptimal(a, cm, gamma, obj, r, opts)
		if !containsDetail(vs, "deterministic engine proves") {
			t.Fatalf("false infeasibility claim not cross-checked: %s", vs)
		}
	})
}

// TestCheckScenarioFastSearchLane: the harness option actually runs the
// fastsearch path (visible in Report.Paths, so a clean report cannot mean
// "the lane never executed") and certifies generated scenarios across
// families without violations.
func TestCheckScenarioFastSearchLane(t *testing.T) {
	opts := Options{
		MILPTimeLimit:    10 * time.Second,
		ExhaustiveBudget: 2_000,
		SimHyperperiods:  1,
		FastSearch:       true,
		Workers:          4,
	}
	ranFast := 0
	for _, f := range []sysgen.Family{sysgen.DeepTies, sysgen.Harmonic, sysgen.Saturated} {
		sc, err := sysgen.Generate(3, f)
		if err != nil {
			t.Fatal(err)
		}
		rep := CheckScenario(sc, opts)
		if len(rep.Violations) != 0 {
			t.Fatalf("%s: %s", sc.Name, rep.Violations)
		}
		for _, p := range rep.Paths {
			if p == "fastsearch" {
				ranFast++
			}
		}
	}
	if ranFast == 0 {
		t.Fatal("no scenario exercised the fastsearch lane")
	}
}

func containsDetail(vs violation.List, sub string) bool {
	for _, v := range vs {
		if strings.Contains(v.Detail, sub) {
			return true
		}
	}
	return false
}
