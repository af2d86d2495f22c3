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
	// Workers fans the per-system feasibility evaluations out across a
	// goroutine pool (0 or 1 = sequential). System generation stays on one
	// per-alpha seeded *rand.Rand consumed in system order, and counts are
	// folded in system order, so the rows are identical for every worker
	// count.
	Workers int
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

	// Stage 1 (sequential, rand-dependent): draw every system from one
	// per-alpha seeded generator, consumed in system order, so the
	// instance streams are identical to the sequential run — and, since
	// each alpha reseeds, identical across alphas too.
	type instance struct {
		alphaIdx int
		sys      *model.System
	}
	instances := make([]instance, 0, len(cfg.Alphas)*cfg.Systems)
	for i := range cfg.Alphas {
		rng := rand.New(rand.NewSource(cfg.Seed)) // same systems per alpha
		for s := 0; s < cfg.Systems; s++ {
			var sys *model.System
			if cfg.Automotive {
				sys = waters.Automotive(rng, cfg.AutoOpts)
			} else {
				sys = waters.Random(rng, cfg.RandomOpts)
			}
			instances = append(instances, instance{alphaIdx: i, sys: sys})
		}
	}

	// Stage 2 (parallel, rand-free): evaluate every instance's
	// feasibility under each approach into a pre-indexed slice.
	type verdict struct {
		schedulable bool
		proposed    bool
		dmaa        bool
		cpu         bool
	}
	verdicts := make([]verdict, len(instances))
	err := forEachIndexed(len(instances), cfg.Workers, func(idx int) error {
		inst := instances[idx]
		alpha := cfg.Alphas[inst.alphaIdx]
		a, err := let.Analyze(inst.sys)
		if err != nil {
			return err
		}
		intf := rta.LETDemand(a, cm, dma.GiottoPerCommSchedule(a))
		gamma, err := rta.Gammas(a, intf, alpha)
		if err != nil {
			return nil // not schedulable regardless of communication
		}
		v := verdict{schedulable: true}
		if _, err := combopt.Solve(a, cm, gamma, dma.NoObjective); err == nil {
			v.proposed = true
		}
		perComm := dma.GiottoPerCommSchedule(a)
		v.dmaa = baselineFeasible(a, cm, perComm, gamma)
		v.cpu = baselineFeasible(a, cpuCM, perComm, gamma)
		verdicts[idx] = v
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Stage 3 (sequential): fold the verdicts in instance order.
	rows := make([]CampaignRow, len(cfg.Alphas))
	for i, alpha := range cfg.Alphas {
		rows[i].Alpha = alpha
	}
	for idx, v := range verdicts {
		if !v.schedulable {
			continue
		}
		r := &rows[instances[idx].alphaIdx]
		r.Total++
		if v.proposed {
			r.Proposed++
		}
		if v.dmaa {
			r.DMAA++
		}
		if v.cpu {
			r.CPU++
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
	instants := a.Instants()
	for i, t := range instants {
		var next = a.H
		if i+1 < len(instants) {
			next = instants[i+1]
		}
		if sched.Duration(a, cm, t) > next-t {
			return false
		}
	}
	return true
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
