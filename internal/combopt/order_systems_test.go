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
