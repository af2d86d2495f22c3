package combopt_test

import (
	"testing"

	"letdma/internal/combopt"
	"letdma/internal/dma"
	"letdma/internal/let"
	"letdma/internal/rta"
	"letdma/internal/sysgen"
	"letdma/internal/waters"
)

// TestOrderExactSystems checks the ordering DP against the dense reference
// on every problem combopt builds for full WATERS, WATERS-lite and two
// seeds of every sysgen family: each granularity with at most
// MaxExactOrderDefault transfers, the three objectives, and alpha 0.2-0.5
// where the RTA admits it.
func TestOrderExactSystems(t *testing.T) {
	full, err := waters.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	lite, err := let.Analyze(waters.Lite())
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"waters", "lite"}
	as := []*let.Analysis{full, lite}
	scs, err := sysgen.GenerateN(1, 2*len(sysgen.Families()))
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range scs {
		if a, err := let.Analyze(sc.Sys); err == nil {
			names, as = append(names, sc.Name), append(as, a)
		}
	}
	cm := dma.DefaultCostModel()
	checked := 0
	for i, a := range as {
		intf := rta.LETDemand(a, cm, dma.GiottoPerCommSchedule(a))
		for _, alpha := range []float64{0.2, 0.3, 0.4, 0.5} {
			gamma, err := rta.Gammas(a, intf, alpha)
			if err != nil {
				continue
			}
			for _, gran := range []combopt.Granularity{combopt.GranMerged, combopt.GranBundled, combopt.GranPerComm} {
				for _, obj := range []dma.Objective{dma.NoObjective, dma.MinTransfers, dma.MinDelayRatio} {
					name := names[i] + "/" + string(gran) + "/" + obj.String()
					if combopt.CheckOrderExact(t, name, a, gamma, obj, gran) {
						checked++
					}
				}
			}
		}
	}
	t.Logf("checked %d ordering problems", checked)
	if checked == 0 {
		t.Fatal("no ordering problem checked")
	}
}

// TestOrderExactWatersInfeasibleAtRoot: at alpha = 0.1 (infeasible in
// Section VII) the ordering DP decides full WATERS without expanding a
// state, at every granularity the exact DP handles and under every
// objective, because some task cannot meet its cap even when its
// transfers and their predecessors run first.
func TestOrderExactWatersInfeasibleAtRoot(t *testing.T) {
	a, err := waters.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	cm := dma.DefaultCostModel()
	gamma, err := rta.Gammas(a, rta.LETDemand(a, cm, dma.GiottoPerCommSchedule(a)), 0.1)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, gran := range []combopt.Granularity{combopt.GranMerged, combopt.GranBundled, combopt.GranPerComm} {
		for _, obj := range []dma.Objective{dma.NoObjective, dma.MinTransfers, dma.MinDelayRatio} {
			expanded, ok, exact := combopt.OrderExactStates(t, a, gamma, obj, gran)
			if !exact {
				continue
			}
			checked++
			if ok || expanded != 0 {
				t.Errorf("%s/%s: ok=%v after %d expanded states, want infeasible at the root", gran, obj, ok, expanded)
			}
		}
	}
	if checked != 9 {
		t.Errorf("checked %d of 9 granularity/objective pairs: every WATERS granularity should fit the exact DP", checked)
	}
}
