package experiments

import (
	"bytes"
	"testing"

	"letdma/internal/dma"
	"letdma/internal/faultsim"
	"letdma/internal/sim"
	"letdma/internal/timeutil"
	"letdma/internal/waters"
)

// liteRobustnessConfig keeps the test sweep small: two rates, few
// trials, a tight slowdown cap.
func liteRobustnessConfig() RobustnessConfig {
	return RobustnessConfig{
		Seed:                7,
		Policy:              sim.AbortTransfer,
		Rates:               []float64{0.01, 0.1},
		Trials:              5,
		MaxSlowdownPermille: 1024000,
		// A single-retry budget with hard drops, so the golden report
		// shows stale-but-surviving runs under the abort policy.
		Base: &faultsim.Model{
			JitterPermille: 50,
			Retries:        1,
			BackoffBase:    timeutil.Microseconds(10),
			DropRate:       0.05,
		},
	}
}

func TestRenderRobustnessGolden(t *testing.T) {
	a := liteAnalysis(t)
	res, err := Robustness(a, Config{Alpha: 0.3}, liteRobustnessConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := RenderRobustness(&buf, res); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "robust_lite.golden", buf.Bytes())

	buf.Reset()
	if err := WriteRobustnessCSV(&buf, res); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "robust_lite_csv.golden", buf.Bytes())
}

// TestRobustnessWatersGolden pins the exact report of the CI robustness
// smoke job: `letdma robust -seed 7 -trials 5` on the full WATERS 2019
// system with the CLI's default flags (alpha 0.2, -obj del, comb
// solver, default rates and fault-model template). If this golden moves,
// update .github/workflows/ci.yml's expectations too — they diff the
// same bytes.
func TestRobustnessWatersGolden(t *testing.T) {
	a, err := waters.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Alpha: 0.2, Objective: dma.MinDelayRatio}
	res, err := Robustness(a, cfg, RobustnessConfig{Seed: 7, Trials: 5})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := RenderRobustness(&buf, res); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "robust_waters.golden", buf.Bytes())
}

// TestRobustnessPolicies: every degradation policy must produce a
// complete report (all four protocols, all rates) without error.
func TestRobustnessPolicies(t *testing.T) {
	a := liteAnalysis(t)
	for _, policy := range []sim.DegradePolicy{sim.AbortTransfer, sim.WaitAll, sim.FailFast} {
		rc := liteRobustnessConfig()
		rc.Policy = policy
		rc.Trials = 3
		res, err := Robustness(a, Config{Alpha: 0.3}, rc)
		if err != nil {
			t.Fatalf("%v: %v", policy, err)
		}
		if len(res.Margins) != 4 {
			t.Fatalf("%v: %d margins, want 4", policy, len(res.Margins))
		}
		for _, m := range res.Margins {
			if len(m.Survival) != len(rc.Rates) {
				t.Errorf("%v/%v: %d survival points, want %d", policy, m.Protocol, len(m.Survival), len(rc.Rates))
			}
		}
	}
}
