package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"letdma/internal/combopt"
	"letdma/internal/dma"
	"letdma/internal/let"
	"letdma/internal/model"
	"letdma/internal/rta"
	"letdma/internal/waters"
)

// CampaignConfig drives a synthetic acceptance-ratio study: random systems
// are generated, data-acquisition deadlines are assigned per the
// alpha-sensitivity rule, and each communication approach is tested for
// feasibility. This extends the paper's single-case-study evaluation with
// the schedulability-curve methodology customary in the field.
type CampaignConfig struct {
	// Systems per alpha level (default 50).
	Systems int
	// Seed for the deterministic generator.
	Seed int64
	// Alphas to sweep (default 0.1..0.9 step 0.2).
	Alphas []float64
	// RandomOpts shapes the generated systems.
	RandomOpts waters.RandomOptions
	// Automotive switches the generator to the Kramer/Duerr/Becker
	// automotive benchmark distributions instead of the uniform one.
	Automotive bool
	// AutoOpts shapes the automotive generator when Automotive is set.
	AutoOpts waters.AutomotiveOptions
}

// CampaignRow is the acceptance count of each approach at one alpha.
type CampaignRow struct {
	Alpha float64
	// Total systems that were schedulable at all (gamma assignable).
	Total int
	// Accepted systems per approach.
	Proposed int
	DMAA     int
	CPU      int
}

// Campaign runs the study and returns one row per alpha.
func Campaign(cfg CampaignConfig) ([]CampaignRow, error) {
	if cfg.Systems == 0 {
		cfg.Systems = 50
	}
	if len(cfg.Alphas) == 0 {
		cfg.Alphas = []float64{0.1, 0.3, 0.5, 0.7, 0.9}
	}
	cm := dma.DefaultCostModel()
	cpuCM := dma.CPUCopyCostModel()
	rows := make([]CampaignRow, len(cfg.Alphas))
	for i, alpha := range cfg.Alphas {
		row := &rows[i]
		row.Alpha = alpha
		rng := rand.New(rand.NewSource(cfg.Seed)) // same systems per alpha
		for s := 0; s < cfg.Systems; s++ {
			var sys *model.System
			if cfg.Automotive {
				sys = waters.Automotive(rng, cfg.AutoOpts)
			} else {
				sys = waters.Random(rng, cfg.RandomOpts)
			}
			a, err := let.Analyze(sys)
			if err != nil {
				return nil, err
			}
			perComm := dma.GiottoPerCommSchedule(a)
			gamma, err := rta.Gammas(a, rta.LETDemand(a, cm, perComm), alpha)
			if err != nil {
				continue // not schedulable regardless of communication
			}
			row.Total++
			if _, err := combopt.Solve(a, cm, gamma, dma.NoObjective); err == nil {
				row.Proposed++
			}
			if baselineFeasible(a, cm, perComm, gamma) {
				row.DMAA++
			}
			if baselineFeasible(a, cpuCM, perComm, gamma) {
				row.CPU++
			}
		}
	}
	return rows, nil
}

// baselineFeasible checks a Giotto-style baseline: every task's worst-case
// latency under the ready-after-all rule meets its deadline, and every
// communication burst completes before the next instant (Property 3).
func baselineFeasible(a *let.Analysis, cm dma.CostModel, sched *dma.Schedule, gamma dma.Deadlines) bool {
	for id, g := range gamma {
		if dma.WorstLatency(a, cm, sched, id, dma.AfterAllReadiness) > g {
			return false
		}
	}
	return len(dma.WindowOverruns(a, cm, sched)) == 0
}

// RenderCampaign prints acceptance ratios per alpha.
func RenderCampaign(w io.Writer, rows []CampaignRow) error {
	ew := &errWriter{w: w}
	ew.printf("%-8s %8s %12s %12s %12s\n", "alpha", "systems", "proposed", "giotto-dma", "giotto-cpu")
	for _, r := range rows {
		if r.Total == 0 {
			ew.printf("%-8.1f %8d %12s %12s %12s\n", r.Alpha, 0, "-", "-", "-")
			continue
		}
		pct := func(n int) string {
			return fmt.Sprintf("%5.1f%%", 100*float64(n)/float64(r.Total))
		}
		ew.printf("%-8.1f %8d %12s %12s %12s\n", r.Alpha, r.Total, pct(r.Proposed), pct(r.DMAA), pct(r.CPU))
	}
	return ew.err
}
