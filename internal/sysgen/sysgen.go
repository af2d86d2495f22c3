// Package sysgen is a seeded random LET-system generator for the
// differential verification subsystem (internal/verify). Unlike the
// campaign generator in internal/waters — which draws WATERS-like
// automotive workloads — sysgen spans scenario families the case study
// never hits: harmonic and co-prime period sets, write-only and
// read-only tasks, single-core degenerate systems, scratchpads saturated
// to the byte, and label sizes at both extremes (1 byte and jumbo
// buffers whose copy time is a visible fraction of the period).
//
// Every scenario is a pure function of (seed, family): re-running a
// failed fuzz case needs only the two values printed in its name.
package sysgen

import (
	"fmt"
	"math/rand"

	"letdma/internal/let"
	"letdma/internal/model"
	"letdma/internal/ordered"
	"letdma/internal/timeutil"
)

// Family names one scenario family.
type Family string

const (
	// Harmonic draws periods from a power-of-two ladder over a random
	// base, the friendliest case for Eq. (3) hyperperiods (H*_i = max
	// period): every skip rule degenerates to "always necessary" only
	// between equal periods.
	Harmonic Family = "harmonic"
	// Coprime draws pairwise co-prime periods (3, 5, 7, 11 ms), the
	// adversarial case for the skip rules of Eqs. (1)-(2): every
	// producer/consumer pair is both over- and under-sampled somewhere
	// in the hyperperiod and T* is dense.
	Coprime Family = "coprime"
	// Stars builds pure producer / pure consumer topologies: a
	// write-only hub fanning out to read-only tasks on other cores, and
	// a read-only sink fed by write-only tasks. Property 1 is vacuous
	// for every task (no task both writes and reads), exercising the
	// empty-group paths of Algorithm 1.
	Stars Family = "stars"
	// SingleCore is the degenerate no-DMA case: every task on core 0,
	// so no label is inter-core. let.Analyze must reject the system
	// cleanly ("no inter-core shared labels"), and the harness checks
	// exactly that.
	SingleCore Family = "single-core"
	// Saturated sizes each scratchpad to exactly the bytes its required
	// objects need (tight fit, feasible) or one byte less (provably
	// infeasible), alternating by seed; the capacity constraint binds
	// either way.
	Saturated Family = "saturated"
	// Extremes mixes 1-byte labels with jumbo buffers whose copy cost
	// approaches the inter-instant windows, stressing Constraint 10
	// and the cost model's ceil-division rounding.
	Extremes Family = "extremes"
	// DeepTies builds symmetric near-tie systems: one writer fans
	// identical-size labels out to readers with identical periods, so
	// layout permutations and transfer groupings tie to within the
	// integer objective step and the branch-and-bound tree is deep and
	// symmetric instead of pruned early. This is the adversarial family
	// for the nondeterministic FastSearch engine — racing workers publish
	// equal-objective incumbents concurrently and the steal heuristic
	// keeps redistributing equally promising subtrees — and is what the
	// oracle-gated fastsearch lane of the harness leans on.
	DeepTies Family = "deep-ties"
)

// Families returns all families in their canonical order (the order
// GenerateN cycles through). New families are appended at the end: the
// rng stream of Generate mixes the family INDEX into the seed, so an
// insertion anywhere else would silently regenerate every pinned
// scenario of the families behind it.
func Families() []Family {
	return []Family{Harmonic, Coprime, Stars, SingleCore, Saturated, Extremes, DeepTies}
}

// Scenario is one generated system plus its provenance and expectations.
type Scenario struct {
	Seed   int64
	Family Family
	// Name is "family/seed=N", the identifier printed on fuzz failures.
	Name string
	Sys  *model.System
	// ExpectNoComm marks degenerate scenarios with no inter-core
	// communication: let.Analyze must fail cleanly on them instead of
	// producing an analysis.
	ExpectNoComm bool
	// ExpectInfeasible marks scenarios built to admit no feasible
	// solution (e.g. a scratchpad one byte too small): every solver
	// must agree on infeasibility.
	ExpectInfeasible bool
}

// Generate builds the scenario for (seed, family). The result is a pure
// function of its arguments.
func Generate(seed int64, f Family) (*Scenario, error) {
	// Mix the family into the stream so equal seeds do not reuse draws
	// across families.
	var famIdx int64 = -1
	for i, known := range Families() {
		if known == f {
			famIdx = int64(i)
		}
	}
	if famIdx < 0 {
		return nil, fmt.Errorf("sysgen: unknown family %q", f)
	}
	rng := rand.New(rand.NewSource(seed*31 + famIdx))
	sc := &Scenario{
		Seed:   seed,
		Family: f,
		Name:   fmt.Sprintf("%s/seed=%d", f, seed),
	}
	switch f {
	case Harmonic:
		sc.Sys = genPeriodic(rng, harmonicPeriods(rng), sizeSmall)
	case Coprime:
		sc.Sys = genPeriodic(rng, coprimePeriods(rng), sizeSmall)
	case Stars:
		sc.Sys = genStars(rng)
	case SingleCore:
		sc.Sys = genSingleCore(rng)
		sc.ExpectNoComm = true
	case Saturated:
		sys, infeasible, err := genSaturated(rng, seed)
		if err != nil {
			return nil, err
		}
		sc.Sys = sys
		sc.ExpectInfeasible = infeasible
	case Extremes:
		sc.Sys = genPeriodic(rng, extremesPeriods(), sizeExtreme)
	case DeepTies:
		sc.Sys = genDeepTies(rng)
	}
	return sc, nil
}

// GenerateN builds n scenarios cycling through the families, with
// per-scenario seeds derived from the base seed.
func GenerateN(seed int64, n int) ([]*Scenario, error) {
	fams := Families()
	out := make([]*Scenario, 0, n)
	for i := 0; i < n; i++ {
		sc, err := Generate(seed+int64(i/len(fams)), fams[i%len(fams)])
		if err != nil {
			return nil, err
		}
		out = append(out, sc)
	}
	return out, nil
}

func harmonicPeriods(rng *rand.Rand) []timeutil.Time {
	base := []timeutil.Time{
		timeutil.Milliseconds(1), timeutil.Milliseconds(2), timeutil.Milliseconds(5),
	}[rng.Intn(3)]
	return []timeutil.Time{base, 2 * base, 4 * base, 8 * base}
}

func coprimePeriods(rng *rand.Rand) []timeutil.Time {
	all := []timeutil.Time{
		timeutil.Milliseconds(3), timeutil.Milliseconds(5),
		timeutil.Milliseconds(7), timeutil.Milliseconds(11),
	}
	// Choose 2-3 distinct co-prime periods; the full set would make T*
	// needlessly dense for unit-test budgets.
	k := 2 + rng.Intn(2)
	idx := rng.Perm(len(all))[:k]
	out := make([]timeutil.Time, 0, k)
	for _, i := range idx {
		out = append(out, all[i])
	}
	return out
}

func extremesPeriods() []timeutil.Time {
	// Long enough that a jumbo copy fits a window, short enough that it
	// binds: 1 MiB at 1 ns/byte is ~1.05 ms against 10-40 ms periods.
	return []timeutil.Time{
		timeutil.Milliseconds(10), timeutil.Milliseconds(20), timeutil.Milliseconds(40),
	}
}

// sizeSmall draws label sizes in [16, 4096] bytes.
func sizeSmall(rng *rand.Rand) int64 { return 16 + rng.Int63n(4081) }

// sizeExtreme draws 1-byte labels half the time and jumbo buffers
// (256 KiB - 1 MiB) the other half. The model forbids zero-size labels
// (model.AddLabel rejects Size <= 0, asserted in tests), so one byte is
// the exact lower boundary.
func sizeExtreme(rng *rand.Rand) int64 {
	if rng.Intn(2) == 0 {
		return 1
	}
	return 256<<10 + rng.Int63n(768<<10)
}

// genPeriodic builds a 2-3 core system with 4-8 tasks on the given
// period menu and 2-6 labels, at least one inter-core.
func genPeriodic(rng *rand.Rand, periods []timeutil.Time, size func(*rand.Rand) int64) *model.System {
	for {
		cores := 2 + rng.Intn(2)
		sys := model.NewSystem(cores)
		nTasks := 4 + rng.Intn(5)
		tasks := make([]*model.Task, 0, nTasks)
		for i := 0; i < nTasks; i++ {
			period := periods[rng.Intn(len(periods))]
			wcet := period / timeutil.Time(20+rng.Intn(30)) // U_i in (3%, 5%]
			tasks = append(tasks, sys.MustAddTask(fmt.Sprintf("T%d", i), period, wcet, model.CoreID(i%cores)))
		}
		nLabels := 2 + rng.Intn(5)
		interCore := false
		for l := 0; l < nLabels; l++ {
			w := tasks[rng.Intn(len(tasks))]
			var readers []*model.Task
			for _, cand := range tasks {
				if cand.ID != w.ID && rng.Intn(3) == 0 {
					readers = append(readers, cand)
				}
			}
			if len(readers) == 0 {
				continue
			}
			if len(readers) > 3 {
				readers = readers[:3]
			}
			sys.MustAddLabel(fmt.Sprintf("L%d", l), size(rng), w, readers...)
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
		return sys
	}
}

// genStars builds pure producer / pure consumer topologies: no task both
// writes and reads a shared label.
func genStars(rng *rand.Rand) *model.System {
	cores := 2 + rng.Intn(2)
	sys := model.NewSystem(cores)
	periods := harmonicPeriods(rng)
	pick := func() timeutil.Time { return periods[rng.Intn(len(periods))] }

	// Write-only hub on core 0 fanning out.
	hub := sys.MustAddTask("HUB", pick(), timeutil.Microseconds(50), 0)
	nOut := 1 + rng.Intn(3)
	var sinks []*model.Task
	for i := 0; i < nOut; i++ {
		core := model.CoreID(1 + rng.Intn(cores-1))
		sinks = append(sinks, sys.MustAddTask(fmt.Sprintf("OUT%d", i), pick(), timeutil.Microseconds(50), core))
	}
	for i, s := range sinks {
		sys.MustAddLabel(fmt.Sprintf("hub%d", i), sizeSmall(rng), hub, s)
	}

	// Read-only sink on the last core fed by write-only feeders.
	sink := sys.MustAddTask("SINK", pick(), timeutil.Microseconds(50), model.CoreID(cores-1))
	nIn := 1 + rng.Intn(3)
	for i := 0; i < nIn; i++ {
		core := model.CoreID(i % (cores - 1)) // never the sink's core
		feeder := sys.MustAddTask(fmt.Sprintf("IN%d", i), pick(), timeutil.Microseconds(50), core)
		sys.MustAddLabel(fmt.Sprintf("feed%d", i), sizeSmall(rng), feeder, sink)
	}
	sys.AssignRateMonotonicPriorities()
	return sys
}

// genSingleCore builds the degenerate case: all tasks on one core, all
// communication core-local (served by double buffering, not DMA).
func genSingleCore(rng *rand.Rand) *model.System {
	sys := model.NewSystem(1)
	periods := harmonicPeriods(rng)
	n := 2 + rng.Intn(3)
	tasks := make([]*model.Task, 0, n)
	for i := 0; i < n; i++ {
		period := periods[rng.Intn(len(periods))]
		tasks = append(tasks, sys.MustAddTask(fmt.Sprintf("S%d", i), period, period/100, 0))
	}
	for l := 0; l < 1+rng.Intn(3); l++ {
		w := tasks[rng.Intn(len(tasks))]
		r := tasks[rng.Intn(len(tasks))]
		if r.ID == w.ID {
			continue
		}
		sys.MustAddLabel(fmt.Sprintf("loc%d", l), sizeSmall(rng), w, r)
	}
	sys.AssignRateMonotonicPriorities()
	return sys
}

// genDeepTies builds the FastSearch-stressing symmetric system: every
// task shares one period, every label one size, and one writer on core 0
// fans out to remote readers. All transfer costs are then identical, so
// the MILP's layout positions and slot assignments are interchangeable
// up to symmetry: the LP relaxation ties (or near-ties, within the
// integer objective step) across whole orbits of the tree, which defeats
// early bound-based pruning and forces the search deep. The fan-out is
// kept at 2 labels (optionally one extra reader on a third core), so
// |C(s0)| is 4-5 — inside the harness's default MILPMaxComms, because a
// tie family that the MILP lanes skip would stress nothing.
func genDeepTies(rng *rand.Rand) *model.System {
	cores := 2 + rng.Intn(2)
	sys := model.NewSystem(cores)
	period := []timeutil.Time{
		timeutil.Milliseconds(5), timeutil.Milliseconds(10), timeutil.Milliseconds(20),
	}[rng.Intn(3)]
	size := int64(256 << rng.Intn(4)) // one size shared by every label
	wcet := period / timeutil.Time(25+rng.Intn(25))

	hub := sys.MustAddTask("W", period, wcet, 0)
	readers := make([]*model.Task, 2)
	for i := range readers {
		core := model.CoreID(1 + rng.Intn(cores-1))
		readers[i] = sys.MustAddTask(fmt.Sprintf("R%d", i), period, wcet, core)
	}
	sys.MustAddLabel("D0", size, hub, readers[0])
	if cores > 2 && rng.Intn(2) == 0 {
		// A second remote reader for D1: 1 write + 2 reads + D0's pair = 5.
		extraCore := model.CoreID(1 + (int(readers[1].Core) % (cores - 1)))
		extra := sys.MustAddTask("R2", period, wcet, extraCore)
		sys.MustAddLabel("D1", size, hub, readers[1], extra)
	} else {
		sys.MustAddLabel("D1", size, hub, readers[1])
	}
	sys.AssignRateMonotonicPriorities()
	return sys
}

// genSaturated builds a harmonic system and pins every memory that hosts
// required objects to exactly the bytes they need — or one byte less on
// odd seeds, making the instance provably infeasible.
func genSaturated(rng *rand.Rand, seed int64) (*model.System, bool, error) {
	sys := genPeriodic(rng, harmonicPeriods(rng), sizeSmall)
	a, err := let.Analyze(sys)
	if err != nil {
		return nil, false, fmt.Errorf("sysgen: saturated base system: %w", err)
	}
	infeasible := seed%2 != 0
	req := requiredBytes(a)
	for _, m := range ordered.Keys(req) {
		bytes := req[m]
		if infeasible {
			bytes--
		}
		sys.SetMemoryCapacity(m, bytes)
	}
	return sys, infeasible, nil
}

// requiredBytes sums, per memory, the sizes of the objects the DMA
// protocol must place there: the shared labels in global memory and the
// local copies in each communicating task's scratchpad.
func requiredBytes(a *let.Analysis) map[model.MemoryID]int64 {
	out := make(map[model.MemoryID]int64)
	for z, c := range a.Comms {
		out[a.LocalMemory(z)] += a.Sys.Label(c.Label).Size
		if c.Kind == let.Write {
			out[a.Sys.GlobalMemory()] += a.Sys.Label(c.Label).Size
		}
	}
	return out
}
