package waters

import (
	"fmt"
	"math"
	"math/rand"

	"letdma/internal/model"
	"letdma/internal/timeutil"
)

// AutomotiveOptions tunes the benchmark generator modeled after the
// real-world automotive characterization of Kramer, Dürr and Becker
// ("Real world automotive benchmarks for free", WATERS 2015), which also
// underlies the WATERS 2019 challenge: periods are drawn from the typical
// engine-management set with their published share weights, and
// communication follows a producer/consumer pattern where most labels are
// small signals and a few are large payloads.
type AutomotiveOptions struct {
	// Cores in the platform (default 4).
	Cores int
	// Tasks to generate (default 10).
	Tasks int
	// UtilizationPerCore is the target utilization of each core
	// (default 0.5); WCETs are scaled by UUniFast-style splitting among
	// the core's tasks.
	UtilizationPerCore float64
	// Labels to generate (default 12).
	Labels int
	// LargePayloadShare is the fraction of labels drawn from the large
	// (KiB-to-hundreds-of-KiB) class instead of the signal class
	// (default 0.2).
	LargePayloadShare float64
}

// automotivePeriods is the KDB period set (ms) with the published share
// weights (angle-synchronous tasks are approximated by the 5 ms bin).
var automotivePeriods = []struct {
	ms     int64
	weight int
}{
	{1, 3}, {2, 2}, {5, 2}, {10, 25}, {20, 25}, {50, 3}, {100, 20}, {200, 1}, {1000, 4},
}

// Automotive generates a random system following the KDB distributions.
// The result always has at least one inter-core shared label and passes
// model.Validate.
func Automotive(rng *rand.Rand, opts AutomotiveOptions) *model.System {
	if opts.Cores == 0 {
		opts.Cores = 4
	}
	if opts.Tasks == 0 {
		opts.Tasks = 10
	}
	if opts.Tasks < opts.Cores {
		opts.Tasks = opts.Cores
	}
	if opts.UtilizationPerCore == 0 {
		opts.UtilizationPerCore = 0.5
	}
	if opts.Labels == 0 {
		opts.Labels = 12
	}
	if opts.LargePayloadShare == 0 {
		opts.LargePayloadShare = 0.2
	}
	totalWeight := 0
	for _, p := range automotivePeriods {
		totalWeight += p.weight
	}

	for {
		sys := model.NewSystem(opts.Cores)
		tasks := make([]*model.Task, 0, opts.Tasks)
		// Indexed by core, so the utilization split below draws from rng
		// in core order.
		perCore := make([][]*model.Task, opts.Cores)
		for i := 0; i < opts.Tasks; i++ {
			w := rng.Intn(totalWeight)
			var periodMs int64
			for _, p := range automotivePeriods {
				if w < p.weight {
					periodMs = p.ms
					break
				}
				w -= p.weight
			}
			core := model.CoreID(i % opts.Cores)
			t := sys.MustAddTask(fmt.Sprintf("T%d_%dms", i, periodMs),
				timeutil.Milliseconds(periodMs), 0, core)
			tasks = append(tasks, t)
			perCore[core] = append(perCore[core], t)
		}
		// UUniFast-style utilization split per core, then WCETs.
		for _, ts := range perCore {
			u := opts.UtilizationPerCore
			for i, t := range ts {
				var ui float64
				if i == len(ts)-1 {
					ui = u
				} else {
					next := u * powRand(rng, 1.0/float64(len(ts)-1-i))
					ui = u - next
					u = next
				}
				wcet := timeutil.Time(ui * float64(t.Period))
				if wcet < timeutil.Microsecond {
					wcet = timeutil.Microsecond
				}
				t.WCET = wcet
			}
		}
		// Labels: mostly small signals (1 B - 1 KiB per KDB), some large
		// payloads (4 KiB - 256 KiB) representing camera/lidar-scale data.
		interCore := false
		for l := 0; l < opts.Labels; l++ {
			w := tasks[rng.Intn(len(tasks))]
			var readers []*model.Task
			for _, cand := range tasks {
				if cand.ID != w.ID && rng.Intn(4) == 0 {
					readers = append(readers, cand)
				}
			}
			if len(readers) == 0 {
				readers = append(readers, tasks[(int(w.ID)+1)%len(tasks)])
				if readers[0].ID == w.ID {
					continue
				}
			}
			var size int64
			if rng.Float64() < opts.LargePayloadShare {
				size = 4096 << uint(rng.Intn(7)) // 4 KiB .. 256 KiB
			} else {
				size = 1 + rng.Int63n(1024)
			}
			sys.MustAddLabel(fmt.Sprintf("L%d", l), size, w, readers...)
			for _, r := range readers {
				if r.Core != w.Core {
					interCore = true
				}
			}
		}
		if !interCore {
			continue
		}
		sys.AssignRateMonotonicPriorities()
		if err := sys.Validate(); err != nil {
			continue // WCET rounding can rarely overshoot; retry
		}
		// Keep hyperperiods tractable: the KDB set is harmonic except for
		// pairings of 1000 with 200 etc., all divisors of 1000 -> LCM is at
		// most 1000 ms. Nothing to check, but guard against surprises.
		if h, err := sys.Hyperperiod(); err != nil || h > timeutil.Seconds(1) {
			continue
		}
		return sys
	}
}

// powRand returns U^(e) for U uniform in (0,1), the UUniFast kernel.
func powRand(rng *rand.Rand, e float64) float64 {
	u := rng.Float64()
	if u == 0 {
		u = 0.5
	}
	return math.Pow(u, e)
}
