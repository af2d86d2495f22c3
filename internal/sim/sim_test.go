package sim

import (
	"bytes"
	"container/heap"
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
		{task: 1, prio: 5, ready: 0, rem: ms(5)},
		{task: 2, prio: 1, ready: ms(2), rem: ms(2)},
	}
	new(workspace).simulateCore(jobs, nil, false)
	if hi := jobs[1].finish; hi != ms(4) {
		t.Errorf("high-priority finish = %v, want 4ms", hi)
	}
	if lo := jobs[0].finish; lo != ms(7) {
		t.Errorf("low-priority finish = %v, want 7ms (preempted)", lo)
	}
}

func TestSimulateCoreIdleGap(t *testing.T) {
	jobs := []job{
		{task: 1, prio: 1, ready: 0, rem: ms(1)},
		{task: 2, prio: 1, ready: ms(5), rem: ms(1)},
	}
	new(workspace).simulateCore(jobs, nil, false)
	if jobs[0].finish != ms(1) || jobs[1].finish != ms(6) {
		t.Errorf("finishes = %v, %v; want 1ms, 6ms", jobs[0].finish, jobs[1].finish)
	}
}

func TestSimulateCoreZeroWCET(t *testing.T) {
	jobs := []job{{task: 1, prio: 1, ready: ms(3), rem: 0}}
	new(workspace).simulateCore(jobs, nil, false)
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
		for k, lat := range res.LatencyAt[task.ID] {
			rel := timeutil.Time(k) * task.Period
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
		for k, lat := range res.LatencyAt[task.ID] {
			rel := timeutil.Time(k) * task.Period
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

// TestEqualPriorityFIFO pins the ready heap's tie-break contract: among jobs of
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
		segs := new(workspace).simulateCore(jobs, nil, true)
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
		// Same priority, same readiness: arrival order (the position in
		// the list handed to simulateCore) decides.
		jobs := []job{mk(0, 3, ms(0), ms(4)), mk(1, 3, ms(0), ms(4))}
		new(workspace).simulateCore(jobs, nil, false)
		if jobs[0].finish != ms(4) || jobs[1].finish != ms(8) {
			t.Errorf("finishes A=%v B=%v, want A=4ms B=8ms (FIFO by seq)", jobs[0].finish, jobs[1].finish)
		}
		// Swapped input order swaps the outcome symmetrically.
		swapped := []job{mk(1, 3, ms(0), ms(4)), mk(0, 3, ms(0), ms(4))}
		new(workspace).simulateCore(swapped, nil, false)
		if swapped[0].finish != ms(4) || swapped[1].finish != ms(8) {
			t.Errorf("finishes B=%v A=%v, want B=4ms A=8ms (FIFO by seq)", swapped[0].finish, swapped[1].finish)
		}
	})

	t.Run("higher-priority-still-preempts", func(t *testing.T) {
		// The tie-break must not weaken real preemption: a higher-priority
		// (numerically lower) job released mid-run does slice the low one.
		jobs := []job{mk(0, 5, ms(0), ms(10)), mk(1, 1, ms(5), ms(2))}
		new(workspace).simulateCore(jobs, nil, false)
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
		for i, j := range new(workspace).arrivalOrder(jobs) {
			if int(j) != want[i] {
				t.Fatalf("trial %d: position %d holds job %d, want %d", trial, i, j, want[i])
			}
		}
	}
}

// refJob is a job numbered by an explicit sequence field, as the
// pointer-based kernel below numbers it.
type refJob struct {
	job
	seq int
}

type refSegment struct {
	j          *refJob
	start, end timeutil.Time
}

// refJobHeap orders by priority, then readiness, then sequence.
type refJobHeap []*refJob

func (h refJobHeap) Len() int { return len(h) }
func (h refJobHeap) Less(i, j int) bool {
	if h[i].prio != h[j].prio {
		return h[i].prio < h[j].prio
	}
	if h[i].ready != h[j].ready {
		return h[i].ready < h[j].ready
	}
	return h[i].seq < h[j].seq
}
func (h refJobHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refJobHeap) Push(x any)   { *h = append(*h, x.(*refJob)) }
func (h *refJobHeap) Pop() any     { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// refSimulateCore is the pointer-based scheduling kernel the index-based
// one replaced: a container/heap ready queue that pops and re-pushes a
// preempted job.
func refSimulateCore(jobs []refJob) []refSegment {
	var segs []refSegment
	arrivals := refArrivalOrder(jobs)
	var ready refJobHeap
	now := timeutil.Time(0)
	i := 0
	for i < len(arrivals) || ready.Len() > 0 {
		if ready.Len() == 0 {
			if now < arrivals[i].ready {
				now = arrivals[i].ready
			}
		}
		for i < len(arrivals) && arrivals[i].ready <= now {
			heap.Push(&ready, arrivals[i])
			i++
		}
		if ready.Len() == 0 {
			continue
		}
		j := heap.Pop(&ready).(*refJob)
		if j.rem == 0 {
			j.finish = now
			continue
		}
		var until timeutil.Time
		if i < len(arrivals) {
			until = arrivals[i].ready
		} else {
			until = now + j.rem
		}
		if now+j.rem <= until {
			segs = append(segs, refSegment{j: j, start: now, end: now + j.rem})
			now += j.rem
			j.rem = 0
			j.finish = now
		} else {
			if until > now {
				segs = append(segs, refSegment{j: j, start: now, end: until})
			}
			j.rem -= until - now
			now = until
			heap.Push(&ready, j)
		}
	}
	return segs
}

// refArrivalOrder is the pointer-based arrival order: it numbers jobs by
// position and merges their natural runs into a []*refJob.
func refArrivalOrder(jobs []refJob) []*refJob {
	a := make([]*refJob, len(jobs))
	runs := []int{0}
	for i := range jobs {
		jobs[i].seq = i
		a[i] = &jobs[i]
		if i > 0 && jobs[i].ready < jobs[i-1].ready {
			runs = append(runs, i)
		}
	}
	runs = append(runs, len(jobs))
	if len(runs) <= 2 {
		return a
	}
	b := make([]*refJob, len(jobs))
	for len(runs) > 2 {
		w := 0
		for r := 0; r+1 < len(runs); r += 2 {
			lo, mid, hi := runs[r], runs[r+1], runs[r+1]
			if r+2 < len(runs) {
				hi = runs[r+2]
			}
			i, j, k := lo, mid, lo
			for ; i < mid && j < hi; k++ {
				if a[j].ready < a[i].ready {
					b[k] = a[j]
					j++
				} else {
					b[k] = a[i]
					i++
				}
			}
			k += copy(b[k:], a[i:mid])
			copy(b[k:], a[j:hi])
			runs[w] = lo
			w++
		}
		runs[w] = len(jobs)
		runs = runs[:w+1]
		a, b = b, a
	}
	return a
}

// randomJobs draws a job list shaped like a replay's: a few runs sorted
// by readiness, dense in equal-priority and equal-ready ties, with some
// zero-length jobs. Each job's task field is its position, to identify it
// in segments.
func randomJobs(rng *rand.Rand) []job {
	var jobs []job
	for r := rng.Intn(6); r >= 0; r-- {
		ready := timeutil.Time(rng.Intn(5))
		for n := rng.Intn(40); n > 0; n-- {
			ready += timeutil.Time(rng.Intn(3))
			jobs = append(jobs, job{
				task:  model.TaskID(len(jobs)),
				prio:  rng.Intn(4) - 1,
				ready: ready,
				rem:   timeutil.Time(rng.Intn(6)),
			})
		}
	}
	return jobs
}

// randomBusyCore draws one core's input in replay shape: task jobs as
// randomJobs draws them but at task priorities (non-negative), and
// disjoint overhead slices in time order. Times are dense, so task
// arrivals often fall inside slices and on their edges, and many slices
// have zero length.
func randomBusyCore(rng *rand.Rand) ([]job, []interval) {
	var jobs []job
	for r := rng.Intn(6); r >= 0; r-- {
		ready := timeutil.Time(rng.Intn(5))
		for n := rng.Intn(30); n > 0; n-- {
			ready += timeutil.Time(rng.Intn(4))
			jobs = append(jobs, job{
				task:  model.TaskID(len(jobs)),
				prio:  rng.Intn(4),
				ready: ready,
				rem:   timeutil.Time(rng.Intn(6)),
			})
		}
	}
	var busy []interval
	end := timeutil.Time(0)
	for n := rng.Intn(30); n > 0; n-- {
		start := end + timeutil.Time(rng.Intn(4))
		end = start + timeutil.Time(rng.Intn(4))
		busy = append(busy, interval{start: start, end: end})
	}
	return jobs, busy
}

// checkKernel runs the kernel on jobs around busy, and the reference
// kernel on the merged list in which every busy slice is a job at
// priority -1 after the task jobs, as replays once built it. It fails
// unless the task finish times and task execution segments agree, and
// returns the reference's task segments.
func checkKernel(t *testing.T, w *workspace, trial int, jobs []job, busy []interval) []refSegment {
	t.Helper()
	ref := make([]refJob, len(jobs)+len(busy))
	for i := range jobs {
		ref[i].job = jobs[i]
	}
	for k, sl := range busy {
		ref[len(jobs)+k].job = job{task: -1, prio: -1, ready: sl.start, rem: sl.end - sl.start}
	}
	var wantSegs []refSegment
	for _, sg := range refSimulateCore(ref) {
		if sg.j.seq < len(jobs) {
			wantSegs = append(wantSegs, sg)
		}
	}
	segs := w.simulateCore(jobs, busy, true)
	for i := range jobs {
		if jobs[i].finish != ref[i].finish {
			t.Fatalf("trial %d: job %d finishes at %v, reference %v", trial, i, jobs[i].finish, ref[i].finish)
		}
	}
	if len(segs) != len(wantSegs) {
		t.Fatalf("trial %d: %d segments, reference %d", trial, len(segs), len(wantSegs))
	}
	for i, sg := range segs {
		want := wantSegs[i]
		if int(sg.j.task) != want.j.seq || sg.start != want.start || sg.end != want.end {
			t.Fatalf("trial %d: segment %d is job %d [%v, %v), reference job %d [%v, %v)",
				trial, i, sg.j.task, sg.start, sg.end, want.j.seq, want.start, want.end)
		}
	}
	return wantSegs
}

// TestKernelMatchesReference: the index-based arrival order and ready
// heap must reproduce the pointer-based container/heap kernel exactly —
// the same arrival order, finish times and execution segments — on
// seeded random job lists, with one workspace reused across all lists.
// Given a core's task jobs and its overhead slices as busy intervals,
// the kernel must match the reference on the merged list. The seeded
// cores must hold task arrivals inside slices and at both slice edges,
// and zero-length slices that split a running task's segment.
func TestKernelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var w workspace
	var inside, atStart, atEnd, zeroSplits int
	for trial := 0; trial < 2000; trial++ {
		jobs := randomJobs(rng)
		ref := make([]refJob, len(jobs))
		for i := range jobs {
			ref[i].job = jobs[i]
		}
		wantOrder := refArrivalOrder(ref)
		for i, x := range w.arrivalOrder(jobs) {
			if int(x) != wantOrder[i].seq {
				t.Fatalf("trial %d: arrival %d is job %d, reference %d", trial, i, x, wantOrder[i].seq)
			}
		}
		checkKernel(t, &w, trial, jobs, nil)

		jobs, busy := randomBusyCore(rng)
		wantSegs := checkKernel(t, &w, trial, jobs, busy)
		arrives := make(map[timeutil.Time]bool, len(jobs))
		for _, j := range jobs {
			arrives[j.ready] = true
			for _, sl := range busy {
				switch {
				case sl.start < j.ready && j.ready < sl.end:
					inside++
				case j.ready == sl.start:
					atStart++
				case j.ready == sl.end:
					atEnd++
				}
			}
		}
		for i := 1; i < len(wantSegs); i++ {
			prev, sg := wantSegs[i-1], wantSegs[i]
			if prev.j == sg.j && prev.end == sg.start && !arrives[sg.start] {
				// Only a zero-length slice splits a segment there.
				zeroSplits++
			}
		}
	}
	if inside == 0 || atStart == 0 || atEnd == 0 || zeroSplits == 0 {
		t.Errorf("corpus lacks a case: %d arrivals inside slices, %d at slice starts, %d at slice ends, %d zero-length splits",
			inside, atStart, atEnd, zeroSplits)
	}
}
