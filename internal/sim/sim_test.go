package sim

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"letdma/internal/combopt"
	"letdma/internal/dma"
	"letdma/internal/let"
	"letdma/internal/model"
	"letdma/internal/rta"
	"letdma/internal/timeutil"
	"letdma/internal/trace"
)

func ms(v int64) timeutil.Time { return timeutil.Milliseconds(v) }
func us(v int64) timeutil.Time { return timeutil.Microseconds(v) }

func chainSystem(t *testing.T) *let.Analysis {
	t.Helper()
	sys := model.NewSystem(2)
	prod := sys.MustAddTask("prod", ms(5), timeutil.Millisecond, 0)
	fast := sys.MustAddTask("fast", ms(10), timeutil.Millisecond, 1)
	slow := sys.MustAddTask("slow", ms(20), timeutil.Millisecond, 1)
	sys.MustAddLabel("lA", 64, prod, fast, slow)
	sys.MustAddLabel("lB", 32, fast, prod)
	sys.AssignRateMonotonicPriorities()
	a, err := let.Analyze(sys)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func optimizedSchedule(t *testing.T, a *let.Analysis) *dma.Schedule {
	t.Helper()
	res, err := combopt.Solve(a, dma.DefaultCostModel(), nil, dma.MinDelayRatio)
	if err != nil {
		t.Fatal(err)
	}
	return res.Sched
}

func TestSimulateCorePreemption(t *testing.T) {
	jobs := []job{
		{task: 1, prio: 5, ready: 0, rem: ms(5), release: 0, deadline: ms(100)},
		{task: 2, prio: 1, ready: ms(2), rem: ms(2), release: ms(2), deadline: ms(100)},
	}
	simulateCore(jobs, false)
	if hi := jobs[1].finish; hi != ms(4) {
		t.Errorf("high-priority finish = %v, want 4ms", hi)
	}
	if lo := jobs[0].finish; lo != ms(7) {
		t.Errorf("low-priority finish = %v, want 7ms (preempted)", lo)
	}
}

func TestSimulateCoreIdleGap(t *testing.T) {
	jobs := []job{
		{task: 1, prio: 1, ready: 0, rem: ms(1), deadline: ms(10)},
		{task: 2, prio: 1, ready: ms(5), rem: ms(1), release: ms(5), deadline: ms(15)},
	}
	simulateCore(jobs, false)
	if jobs[0].finish != ms(1) || jobs[1].finish != ms(6) {
		t.Errorf("finishes = %v, %v; want 1ms, 6ms", jobs[0].finish, jobs[1].finish)
	}
}

func TestSimulateCoreZeroWCET(t *testing.T) {
	jobs := []job{{task: 1, prio: 1, ready: ms(3), rem: 0, release: ms(3), deadline: ms(10)}}
	simulateCore(jobs, false)
	if jobs[0].finish != ms(3) {
		t.Errorf("zero-WCET finish = %v, want 3ms", jobs[0].finish)
	}
}

// TestProposedMatchesAnalytic is the central cross-validation: simulated
// data-acquisition latencies must equal the Constraint-9 accumulation for
// every job of every task.
func TestProposedMatchesAnalytic(t *testing.T) {
	a := chainSystem(t)
	cm := dma.DefaultCostModel()
	sched := optimizedSchedule(t, a)
	res, err := Run(Config{Analysis: a, Cost: cm, Sched: sched, Protocol: Proposed})
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range a.Sys.Tasks {
		for rel, lat := range res.LatencyAt[task.ID] {
			t0 := timeutil.Time(int64(rel) % int64(a.H))
			want := dma.Latency(a, cm, sched, t0, task.ID, dma.PerTaskReadiness)
			if lat != want {
				t.Errorf("lambda(%s @ %v) = %v, analytic %v", task.Name, rel, lat, want)
			}
		}
	}
	if res.Property3Violations != 0 {
		t.Errorf("unexpected Property 3 violations: %d", res.Property3Violations)
	}
}

func TestGiottoDMAAMatchesAnalytic(t *testing.T) {
	a := chainSystem(t)
	cm := dma.DefaultCostModel()
	res, err := Run(Config{Analysis: a, Cost: cm, Protocol: GiottoDMAA})
	if err != nil {
		t.Fatal(err)
	}
	per := dma.GiottoPerCommSchedule(a)
	for _, task := range a.Sys.Tasks {
		for rel, lat := range res.LatencyAt[task.ID] {
			t0 := timeutil.Time(int64(rel) % int64(a.H))
			want := dma.Latency(a, cm, per, t0, task.ID, dma.AfterAllReadiness)
			if lat != want {
				t.Errorf("lambda(%s @ %v) = %v, analytic %v", task.Name, rel, lat, want)
			}
		}
	}
}

func TestGiottoCPUMatchesAnalytic(t *testing.T) {
	a := chainSystem(t)
	cpuCost := dma.CPUCopyCostModel()
	res, err := Run(Config{Analysis: a, Cost: dma.DefaultCostModel(), CPUCost: cpuCost, Protocol: GiottoCPU})
	if err != nil {
		t.Fatal(err)
	}
	per := dma.GiottoPerCommSchedule(a)
	for _, task := range a.Sys.Tasks {
		want := dma.Latency(a, cpuCost, per, 0, task.ID, dma.AfterAllReadiness)
		if got := res.LatencyAt[task.ID][0]; got != want {
			t.Errorf("lambda(%s @ 0) = %v, analytic %v", task.Name, got, want)
		}
	}
}

// TestGiottoCPUSlowerOnLargePayloads: with big labels the DMA's per-transfer
// overhead amortizes and the CPU-copy baseline falls behind — the paper's
// motivation for DMA offloading of sensor-scale data.
func TestGiottoCPUSlowerOnLargePayloads(t *testing.T) {
	sys := model.NewSystem(2)
	prod := sys.MustAddTask("prod", ms(10), timeutil.Millisecond, 0)
	cons := sys.MustAddTask("cons", ms(10), timeutil.Millisecond, 1)
	sys.MustAddLabel("cloud", 256<<10, prod, cons) // 256 KiB point cloud
	sys.AssignRateMonotonicPriorities()
	a, err := let.Analyze(sys)
	if err != nil {
		t.Fatal(err)
	}
	cm := dma.DefaultCostModel()
	sched := optimizedSchedule(t, a)
	prop, err := Run(Config{Analysis: a, Cost: cm, Sched: sched, Protocol: Proposed})
	if err != nil {
		t.Fatal(err)
	}
	cpu, err := Run(Config{Analysis: a, Cost: cm, Protocol: GiottoCPU})
	if err != nil {
		t.Fatal(err)
	}
	id := a.Sys.TaskByName("cons").ID
	if cpu.Stats[id].MaxLatency <= prop.Stats[id].MaxLatency {
		t.Errorf("Giotto-CPU latency %v should exceed proposed %v for 256 KiB labels",
			cpu.Stats[id].MaxLatency, prop.Stats[id].MaxLatency)
	}
}

func TestGiottoDMABUsesGiottoOrder(t *testing.T) {
	a := chainSystem(t)
	cm := dma.DefaultCostModel()
	sched := optimizedSchedule(t, a)
	res, err := Run(Config{Analysis: a, Cost: cm, Sched: sched, Protocol: GiottoDMAB})
	if err != nil {
		t.Fatal(err)
	}
	re := dma.GiottoReorder(a, sched)
	for _, task := range a.Sys.Tasks {
		want := dma.Latency(a, cm, re, 0, task.ID, dma.AfterAllReadiness)
		if got := res.LatencyAt[task.ID][0]; got != want {
			t.Errorf("lambda(%s @ 0) = %v, want %v", task.Name, got, want)
		}
	}
}

func TestJobCountsAndResponses(t *testing.T) {
	a := chainSystem(t)
	cm := dma.DefaultCostModel()
	sched := optimizedSchedule(t, a)
	res, err := Run(Config{Analysis: a, Cost: cm, Sched: sched, Protocol: Proposed})
	if err != nil {
		t.Fatal(err)
	}
	// H = 20ms: prod 4 jobs, fast 2, slow 1.
	wantJobs := map[string]int{"prod": 4, "fast": 2, "slow": 1}
	for name, want := range wantJobs {
		st := res.Stats[a.Sys.TaskByName(name).ID]
		if st.Jobs != want {
			t.Errorf("%s jobs = %d, want %d", name, st.Jobs, want)
		}
		if st.MaxResponse < timeutil.Millisecond {
			t.Errorf("%s response %v below its WCET", name, st.MaxResponse)
		}
		if st.Misses != 0 {
			t.Errorf("%s has %d deadline misses", name, st.Misses)
		}
	}
}

func TestMultipleHyperperiods(t *testing.T) {
	a := chainSystem(t)
	cm := dma.DefaultCostModel()
	sched := optimizedSchedule(t, a)
	res, err := Run(Config{Analysis: a, Cost: cm, Sched: sched, Protocol: Proposed, Hyperperiods: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Stats[a.Sys.TaskByName("prod").ID].Jobs; got != 12 {
		t.Errorf("prod jobs over 3 hyperperiods = %d, want 12", got)
	}
}

func TestProperty3ViolationDetected(t *testing.T) {
	// 20us periods cannot absorb two 13.36us+ transfers.
	sys := model.NewSystem(2)
	x := sys.MustAddTask("x", us(20), 0, 0)
	y := sys.MustAddTask("y", us(20), 0, 1)
	sys.MustAddLabel("lx", 8, x, y)
	sys.MustAddLabel("ly", 8, y, x)
	sys.AssignRateMonotonicPriorities()
	a, err := let.Analyze(sys)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{Analysis: a, Cost: dma.DefaultCostModel(), Protocol: GiottoDMAA})
	if err != nil {
		t.Fatal(err)
	}
	if res.Property3Violations == 0 {
		t.Error("expected Property 3 violations")
	}
}

func TestConfigErrors(t *testing.T) {
	a := chainSystem(t)
	if _, err := Run(Config{Analysis: a, Cost: dma.DefaultCostModel(), Protocol: Proposed}); err == nil {
		t.Error("Proposed without schedule must fail")
	}
	if _, err := Run(Config{Cost: dma.DefaultCostModel(), Protocol: GiottoDMAA}); err == nil {
		t.Error("missing analysis must fail")
	}
	if _, err := Run(Config{Analysis: a, Cost: dma.DefaultCostModel(), Protocol: Protocol(99)}); err == nil {
		t.Error("unknown protocol must fail")
	}
}

func TestProtocolString(t *testing.T) {
	names := map[Protocol]string{
		Proposed: "Proposed", GiottoCPU: "Giotto-CPU",
		GiottoDMAA: "Giotto-DMA-A", GiottoDMAB: "Giotto-DMA-B",
	}
	for p, want := range names {
		if p.String() != want {
			t.Errorf("Protocol(%d).String() = %q", p, p.String())
		}
	}
}

func TestTracingProducesEvents(t *testing.T) {
	a := chainSystem(t)
	cm := dma.DefaultCostModel()
	sched := optimizedSchedule(t, a)
	tr := &trace.Trace{}
	if _, err := Run(Config{Analysis: a, Cost: cm, Sched: sched, Protocol: Proposed, Trace: tr}); err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) == 0 {
		t.Fatal("no trace events recorded")
	}
	var jobs, copies, overheads, readies int
	for _, e := range tr.Events {
		switch e.Cat {
		case trace.CatJob:
			jobs++
		case trace.CatCopy:
			copies++
		case trace.CatOverhead:
			overheads++
		case trace.CatReady:
			readies++
		}
	}
	if jobs == 0 || copies == 0 || overheads == 0 || readies == 0 {
		t.Errorf("missing categories: jobs=%d copies=%d overheads=%d readies=%d", jobs, copies, overheads, readies)
	}
	// Each copy has a programming overhead and an ISR.
	if overheads != 2*copies {
		t.Errorf("overheads = %d, want 2x copies (%d)", overheads, 2*copies)
	}
	// The chrome export round-trips as JSON.
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Error("chrome export is not valid JSON")
	}
	// The ASCII renderer covers the first activation burst.
	buf.Reset()
	if err := tr.RenderASCII(&buf, 0, timeutil.Milliseconds(1), 60); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "core0") {
		t.Error("ASCII render missing core0 track")
	}
}

// TestSimBoundedByRTA: simulated worst-case response times never exceed the
// analytical WCRT bound computed with the measured latencies as jitter.
func TestSimBoundedByRTA(t *testing.T) {
	a := chainSystem(t)
	cm := dma.DefaultCostModel()
	sched := optimizedSchedule(t, a)
	res, err := Run(Config{Analysis: a, Cost: cm, Sched: sched, Protocol: Proposed, Hyperperiods: 2})
	if err != nil {
		t.Fatal(err)
	}
	jit := make(rta.Jitters)
	for _, task := range a.Sys.Tasks {
		jit[task.ID] = res.Stats[task.ID].MaxLatency
	}
	intf := rta.LETDemand(a, cm, sched)
	bounds, err := rta.WCRT(a.Sys, jit, intf)
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range a.Sys.Tasks {
		// Simulated response includes the latency (ready - release) plus
		// execution; the RTA bound covers execution from readiness, so the
		// comparable bound is jitter + WCRT.
		simResp := res.Stats[task.ID].MaxResponse
		bound := jit[task.ID] + bounds[task.ID]
		if simResp > bound {
			t.Errorf("%s: simulated response %v exceeds RTA bound %v", task.Name, simResp, bound)
		}
	}
}

func TestAvgLatency(t *testing.T) {
	a := chainSystem(t)
	cm := dma.DefaultCostModel()
	sched := optimizedSchedule(t, a)
	res, err := Run(Config{Analysis: a, Cost: cm, Sched: sched, Protocol: Proposed})
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range a.Sys.Tasks {
		st := res.Stats[task.ID]
		if st.AvgLatency() > st.MaxLatency {
			t.Errorf("%s: avg %v > max %v", task.Name, st.AvgLatency(), st.MaxLatency)
		}
		var manual timeutil.Time
		for _, lat := range res.LatencyAt[task.ID] {
			manual += lat
		}
		if st.TotalLatency != manual {
			t.Errorf("%s: TotalLatency %v != sum of per-release %v", task.Name, st.TotalLatency, manual)
		}
	}
	empty := &TaskStats{}
	if empty.AvgLatency() != 0 {
		t.Error("AvgLatency of zero jobs should be 0")
	}
}

// TestEqualPriorityFIFO pins the jobHeap tie-break contract: among jobs of
// equal priority, earlier readiness runs first, and equal (priority, ready)
// pairs run in arrival (sequence) order. A newly released equal-priority job
// must NOT preempt the running one — the running job keeps its earlier ready
// time, so it wins every heap comparison until it completes.
func TestEqualPriorityFIFO(t *testing.T) {
	mk := func(id model.TaskID, prio int, ready, rem timeutil.Time) job {
		return job{task: id, prio: prio, ready: ready, rem: rem}
	}

	t.Run("no-preemption-on-later-release", func(t *testing.T) {
		// A ready at 0, B at 5, both priority 2 with 10ms of work: A must run
		// to completion at 10 before B starts, so B finishes at 20.
		jobs := []job{mk(0, 2, ms(0), ms(10)), mk(1, 2, ms(5), ms(10))}
		jobA, jobB := &jobs[0], &jobs[1]
		segs := simulateCore(jobs, true)
		if jobA.finish != ms(10) {
			t.Errorf("A finished at %v, want 10ms (uninterrupted)", jobA.finish)
		}
		if jobB.finish != ms(20) {
			t.Errorf("B finished at %v, want 20ms (strictly after A)", jobB.finish)
		}
		// A must occupy the core continuously over [0, 10ms]: segments may be
		// split at B's arrival instant, but no B segment may interleave and
		// A's coverage must be gapless from 0 to its finish.
		cursor := ms(0)
		for _, sg := range segs {
			if sg.start >= ms(10) {
				break // past A's run; B executes from here
			}
			if sg.j != jobA {
				t.Fatalf("job %d ran at %v inside A's run", sg.j.task, sg.start)
			}
			if sg.start != cursor {
				t.Fatalf("gap in A's run: segment starts at %v, want %v", sg.start, cursor)
			}
			cursor = sg.end
		}
		if cursor != ms(10) {
			t.Errorf("A's contiguous coverage ends at %v, want 10ms", cursor)
		}
	})

	t.Run("equal-ready-runs-in-sequence-order", func(t *testing.T) {
		// Same priority, same readiness: arrival order (the order jobs are
		// handed to simulateCore, which assigns seq) decides.
		jobs := []job{mk(0, 3, ms(0), ms(4)), mk(1, 3, ms(0), ms(4))}
		simulateCore(jobs, false)
		if jobs[0].finish != ms(4) || jobs[1].finish != ms(8) {
			t.Errorf("finishes A=%v B=%v, want A=4ms B=8ms (FIFO by seq)", jobs[0].finish, jobs[1].finish)
		}
		// Swapped input order swaps the outcome symmetrically.
		swapped := []job{mk(1, 3, ms(0), ms(4)), mk(0, 3, ms(0), ms(4))}
		simulateCore(swapped, false)
		if swapped[0].finish != ms(4) || swapped[1].finish != ms(8) {
			t.Errorf("finishes B=%v A=%v, want B=4ms A=8ms (FIFO by seq)", swapped[0].finish, swapped[1].finish)
		}
	})

	t.Run("higher-priority-still-preempts", func(t *testing.T) {
		// The tie-break must not weaken real preemption: a higher-priority
		// (numerically lower) job released mid-run does slice the low one.
		jobs := []job{mk(0, 5, ms(0), ms(10)), mk(1, 1, ms(5), ms(2))}
		simulateCore(jobs, false)
		if hi := jobs[1].finish; hi != ms(7) {
			t.Errorf("high-priority finished at %v, want 7ms", hi)
		}
		if lo := jobs[0].finish; lo != ms(12) {
			t.Errorf("low-priority finished at %v, want 12ms (preempted for 2ms)", lo)
		}
	})
}

// TestArrivalOrderIsStableByReadiness: the run-merging arrival order must
// equal a stable sort by readiness — (ready, position) — for lists with
// any run structure and many ties.
func TestArrivalOrderIsStableByReadiness(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		jobs := make([]job, rng.Intn(60))
		for i := range jobs {
			jobs[i].ready = timeutil.Time(rng.Intn(8))
		}
		want := make([]int, len(jobs))
		for i := range want {
			want[i] = i
		}
		sort.SliceStable(want, func(x, y int) bool { return jobs[want[x]].ready < jobs[want[y]].ready })
		for i, j := range arrivalOrder(jobs) {
			if j.seq != want[i] {
				t.Fatalf("trial %d: position %d holds job %d, want %d", trial, i, j.seq, want[i])
			}
		}
	}
}
