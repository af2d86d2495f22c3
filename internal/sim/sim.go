// Package sim is a discrete-event simulator for the LET-DMA protocol of
// Section V and the three baseline approaches of Section VII. It exercises
// the runtime behaviour that the MILP of Section VI only bounds analytically:
//
//   - at every communication instant t of T*, the induced DMA transfers are
//     played out sequentially: o_DP of CPU time on the core whose LET task
//     programs the transfer, the data copy on the DMA, then o_ISR of CPU
//     time for the completion interrupt;
//   - tasks become ready per rule R1/R3 (proposed protocol) or after the
//     whole sequence (Giotto variants); Giotto-CPU performs the copies on
//     the CPUs instead of the DMA;
//   - each core runs its ready jobs under preemptive fixed-priority
//     scheduling, with the DMA programming and ISR segments preempting at
//     the highest priority.
//
// The simulator reports per-task data-acquisition latencies (per release
// and worst-case), response times, deadline misses, and Property-3
// violations (transfer sequences spilling past the next communication
// instant). On contention-free instants the simulated latency equals
// dma.Latency exactly, which the tests assert.
//
// # Fault injection
//
// Config.Inject plugs a fault model (internal/faultsim) into the replay:
// every transfer attempt asks the injector for its actual copy duration
// and verdict (ok, transient error, hard drop). Transient errors are
// retried after an injector-chosen backoff up to the injector's budget;
// an exhausted budget or a hard drop is an unrecoverable failure, handled
// by the configured DegradePolicy. Every deviation from the nominal
// protocol — window overruns, exhausted retries, stale labels published
// by a skipped transfer — is reported as a structured violation.List
// entry on the Result, never as a panic or a silently wrong latency.
// With Inject == nil the replay is exactly the nominal cost model.
package sim

import (
	"fmt"
	"slices"

	"letdma/internal/dma"
	"letdma/internal/let"
	"letdma/internal/model"
	"letdma/internal/timeutil"
	"letdma/internal/trace"
	"letdma/internal/violation"
)

// Protocol selects the communication approach to simulate.
type Protocol int

const (
	// Proposed is the paper's protocol: optimized transfer schedule with
	// per-task readiness (rules R1-R3).
	Proposed Protocol = iota
	// GiottoCPU performs one CPU copy per communication in the Giotto
	// order; tasks become ready after the full sequence.
	GiottoCPU
	// GiottoDMAA uses one DMA transfer per communication in the Giotto
	// order (no layout knowledge); readiness after the full sequence.
	GiottoDMAA
	// GiottoDMAB uses the optimized grouping/layout but the Giotto order
	// and readiness rule.
	GiottoDMAB
)

// String names the protocol with the paper's labels.
func (p Protocol) String() string {
	switch p {
	case Proposed:
		return "Proposed"
	case GiottoCPU:
		return "Giotto-CPU"
	case GiottoDMAA:
		return "Giotto-DMA-A"
	default:
		return "Giotto-DMA-B"
	}
}

// FaultVerdict classifies one injected transfer attempt.
type FaultVerdict int

const (
	// AttemptOK: the attempt completes after its (possibly inflated)
	// copy time.
	AttemptOK FaultVerdict = iota
	// AttemptTransient: the attempt consumes its full worst-case cost and
	// then fails with a recoverable DMA error; the runtime backs off and
	// retries while budget remains.
	AttemptTransient
	// AttemptDropped: the transfer is dropped by the engine before any
	// time is consumed; no retry can recover it.
	AttemptDropped
)

// Injector is the fault model driven by the replay. Implementations must
// be pure functions of (own seed, instant, transfer, attempt) so that a
// run is deterministic regardless of scheduling; internal/faultsim
// provides the seeded reference implementation.
type Injector interface {
	// Attempt returns the copy duration charged to the given attempt
	// (nominal possibly inflated by jitter, bursts or a uniform
	// slowdown) and its verdict. t is the absolute instant of the
	// communication sequence, transfer the induced-transfer index at t,
	// attempt the 0-based attempt number.
	Attempt(t timeutil.Time, transfer, attempt int, nominal timeutil.Time) (timeutil.Time, FaultVerdict)
	// MaxRetries is the per-transfer retry budget after the first attempt.
	MaxRetries() int
	// Backoff returns the idle wait before retry number attempt (1-based).
	Backoff(attempt int) timeutil.Time
}

// DegradePolicy selects how the runtime reacts when fault injection makes
// a transfer unrecoverable (hard drop or exhausted retries) or a sequence
// overrun its communication window.
type DegradePolicy int

const (
	// AbortTransfer skips the failed transfer, and any transfer whose
	// next attempt could not complete within the window, per the
	// eta^W/eta^R skip-rule semantics: the affected labels keep their
	// previous-cycle (stale but internally consistent) values, consumers
	// proceed, and Property 3 is preserved for subsequent instants.
	AbortTransfer DegradePolicy = iota
	// WaitAll falls back to Giotto readiness for the affected instant:
	// every task released there waits for the whole (late) sequence, and
	// overruns spill into the following windows exactly as measured.
	WaitAll
	// FailFast stops the replay at the first unrecoverable failure or
	// window overrun. The Result still carries the full violation list
	// and Halted/HaltedAt; releases at or after the halt instant are not
	// compared against the nominal protocol.
	FailFast
)

// String names the policy with the letdma flag spellings.
func (p DegradePolicy) String() string {
	switch p {
	case AbortTransfer:
		return "abort-transfer"
	case WaitAll:
		return "wait-all"
	default:
		return "fail-fast"
	}
}

// ParseDegradePolicy maps the letdma -policy spellings to a policy.
func ParseDegradePolicy(s string) (DegradePolicy, error) {
	switch s {
	case "abort", "abort-transfer":
		return AbortTransfer, nil
	case "waitall", "wait-all":
		return WaitAll, nil
	case "failfast", "fail-fast":
		return FailFast, nil
	}
	return 0, fmt.Errorf("sim: unknown degradation policy %q (want abort | waitall | failfast)", s)
}

// Config describes one simulation run.
type Config struct {
	Analysis *let.Analysis
	// Cost is the DMA cost model (o_DP, o_ISR, omega_c).
	Cost dma.CostModel
	// CPUCost is the copy cost model for GiottoCPU (defaults to
	// dma.CPUCopyCostModel).
	CPUCost dma.CostModel
	// Sched is the optimized transfer schedule; required for Proposed and
	// GiottoDMAB, ignored by the per-comm protocols.
	Sched    *dma.Schedule
	Protocol Protocol
	// Hyperperiods to simulate (default 1; the pattern repeats).
	Hyperperiods int
	// Trace, when non-nil, receives execution slices (task jobs, DMA
	// copies, programming/ISR overheads) and readiness markers.
	Trace *trace.Trace
	// Inject, when non-nil, drives fault injection: per-attempt copy
	// times, transient errors, retry budgets and hard drops. Nil replays
	// the nominal cost model exactly.
	Inject Injector
	// Policy selects the degradation response to unrecoverable faults
	// and window overruns. Only consulted when Inject is non-nil; the
	// zero value is AbortTransfer.
	Policy DegradePolicy
}

// validate checks the configuration up front, so misconfigured runs fail
// with a descriptive error instead of a downstream panic or a silently
// empty result.
func (cfg *Config) validate() error {
	if cfg.Analysis == nil {
		return fmt.Errorf("sim: Config.Analysis is nil (run let.Analyze first)")
	}
	if cfg.Hyperperiods < 0 {
		return fmt.Errorf("sim: negative Hyperperiods %d (0 defaults to 1)", cfg.Hyperperiods)
	}
	switch cfg.Protocol {
	case Proposed:
		if cfg.Sched == nil {
			return fmt.Errorf("sim: Proposed protocol requires Config.Sched (the optimized transfer schedule)")
		}
	case GiottoDMAB:
		if cfg.Sched == nil {
			return fmt.Errorf("sim: Giotto-DMA-B requires Config.Sched (the optimized transfer schedule)")
		}
	case GiottoCPU, GiottoDMAA:
		// Per-comm protocols derive their schedule from the analysis.
	default:
		return fmt.Errorf("sim: unknown protocol %d", cfg.Protocol)
	}
	if cfg.Protocol != GiottoCPU {
		if err := cfg.Cost.Validate(); err != nil {
			return fmt.Errorf("sim: Config.Cost: %w", err)
		}
	}
	if cfg.CPUCost.CopyNsDen != 0 {
		if err := cfg.CPUCost.Validate(); err != nil {
			return fmt.Errorf("sim: Config.CPUCost: %w", err)
		}
	}
	if cfg.Inject != nil {
		if cfg.Policy != AbortTransfer && cfg.Policy != WaitAll && cfg.Policy != FailFast {
			return fmt.Errorf("sim: unknown degradation policy %d", cfg.Policy)
		}
		if n := cfg.Inject.MaxRetries(); n < 0 {
			return fmt.Errorf("sim: Injector.MaxRetries() is negative (%d)", n)
		}
	}
	return nil
}

// TaskStats aggregates per-task results.
type TaskStats struct {
	Name         string
	Jobs         int
	MaxLatency   timeutil.Time // worst ready - release
	TotalLatency timeutil.Time // sum over jobs, for averages
	MaxResponse  timeutil.Time // worst finish - release
	Misses       int           // jobs finishing after release + period
	// StaleReads counts jobs that consumed at least one stale label
	// because a transfer carrying one of their communications failed or
	// was aborted (fault injection only).
	StaleReads int
}

// AvgLatency returns the mean data-acquisition latency over all jobs.
func (s *TaskStats) AvgLatency() timeutil.Time {
	if s.Jobs == 0 {
		return 0
	}
	return s.TotalLatency / timeutil.Time(s.Jobs)
}

// Result is the outcome of a simulation.
type Result struct {
	Stats map[model.TaskID]*TaskStats
	// LatencyAt[id][k] is the data-acquisition latency of the k-th job of
	// task id, the one released at absolute time k*T_i (T_i its period).
	// Each task's slice holds its releases in [0, Hyperperiods*H).
	LatencyAt map[model.TaskID][]timeutil.Time
	// Property3Violations counts communication sequences that spilled past
	// the next communication instant.
	Property3Violations int
	// Violations lists every runtime deviation of an injected-fault run
	// (codes overrun, retry-exhausted, stale-read), in replay order. Nil
	// when Inject was nil or no fault manifested.
	Violations violation.List
	// DegradedAt lists, in increasing order and without repeats, the
	// absolute instants whose transfer sequence deviated from the nominal
	// replay in any way (inflated copy time, retry, failure, overrun, or a
	// start delayed by an earlier spill); look one up with
	// slices.BinarySearch. At instants not listed, simulated latencies
	// equal the analytic prediction; the verification oracle relies on
	// that contract.
	DegradedAt []timeutil.Time
	// Retries counts transient-error retries across the run.
	Retries int
	// AbortedTransfers counts transfers skipped or failed permanently.
	AbortedTransfers int
	// StaleComms counts communications whose data went stale.
	StaleComms int
	// Halted reports that the FailFast policy stopped the replay at
	// absolute instant HaltedAt; later communication sequences were not
	// played and later releases carry no transfer-induced latency.
	Halted   bool
	HaltedAt timeutil.Time
}

// interval is a slice of CPU time, [start, end), that a programming, ISR
// or CPU-copy overhead holds at the highest priority.
type interval struct {
	start, end timeutil.Time
}

// Run simulates the configured protocol and returns per-task statistics.
// It is NewPlan followed by Plan.Run; callers replaying one schedule
// many times keep the plan instead.
func Run(cfg Config) (*Result, error) {
	p, err := NewPlan(cfg)
	if err != nil {
		return nil, err
	}
	return p.Run(cfg)
}

// Plan is the cost-independent half of a simulation: the protocol's
// effective transfer schedule, the induced transfers and task releases
// of every communication instant, and the job numbering. Replays that
// differ only in Cost, CPUCost, Inject, Policy or Trace — a margin
// search, a survival sweep — share one plan. The plan also owns the
// replay workspace that every Run resets and reuses, so Runs on one Plan
// must not overlap; build one plan per goroutine instead.
type Plan struct {
	a            *let.Analysis
	sched        *dma.Schedule // Config.Sched as given, for the match check
	protocol     Protocol
	hyperperiods int
	horizon      timeutil.Time
	perTask      bool // rules R1/R3 readiness; Giotto readiness otherwise
	steps        []step
	// jobBase[i] numbers the first job of a.Sys.Tasks[i]; its job
	// released at k*Period is jobBase[i]+k.
	jobBase []int
	numJobs int
	// coreJobs counts the task jobs of each core; coreOvs counts its
	// overhead slices in a fault-free replay.
	coreJobs []int
	coreOvs  []int
	ws       workspace
}

// step is one communication instant of T* whose induced schedule is
// non-empty, relative to the start of its hyperperiod.
type step struct {
	t0, next timeutil.Time // the instant and the end of its window
	xfers    []xfer        // shared by the steps of one activation pattern
	releases []release
}

// xfer is one induced transfer with its cost-independent attributes.
type xfer struct {
	comms []int
	core  model.CoreID // core of the LET task that programs it
	size  int64
}

// release is a task released at a step, with the communications its
// readiness waits on (G^W and G^R of Algorithm 1).
type release struct {
	task  int // index into a.Sys.Tasks
	comms []int
}

// NewPlan validates cfg and precomputes everything a replay needs that
// does not depend on the cost models, the injector, the policy or the
// trace.
func NewPlan(cfg Config) (*Plan, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	a := cfg.Analysis
	if cfg.Hyperperiods == 0 {
		cfg.Hyperperiods = 1
	}
	sched, perTask := effectiveSchedule(cfg)
	nc := a.Sys.NumCores
	counts := make([]int, 2*nc) // coreJobs, then coreOvs
	p := &Plan{
		a:            a,
		sched:        cfg.Sched,
		protocol:     cfg.Protocol,
		hyperperiods: cfg.Hyperperiods,
		horizon:      a.H * timeutil.Time(cfg.Hyperperiods),
		perTask:      perTask,
		jobBase:      make([]int, len(a.Sys.Tasks)),
		coreJobs:     counts[:nc:nc],
		coreOvs:      counts[nc:],
	}
	for i, task := range a.Sys.Tasks {
		p.jobBase[i] = p.numJobs
		n := int((p.horizon + task.Period - 1) / task.Period)
		p.numJobs += n
		p.coreJobs[task.Core] += n
	}
	perXfer := 2 // programming + ISR slices per transfer
	if cfg.Protocol == GiottoCPU {
		perXfer = 1 // one CPU copy slice per transfer
	}
	// The induced schedule at t, and each task's communications there,
	// depend on t only through the activation pattern C(t), so both are
	// computed once per pattern.
	reps := a.ActiveSubsets()
	nt := len(a.Sys.Tasks)
	byPattern := make([][]xfer, len(reps))
	groups := make([][]int, len(reps)*nt) // [pattern*nt + task index]
	grouped := make([]bool, len(groups))
	// Every step's releases are carved from rels; its capacity bounds the
	// releases of a hyperperiod, so appending never moves earlier ones.
	nrel := 0
	for _, task := range a.Sys.Tasks {
		nrel += int(a.H / task.Period)
	}
	rels := make([]release, 0, nrel)
	instants := a.Instants()
	p.steps = make([]step, 0, len(instants))
	for idx, t0 := range instants {
		pi := a.PatternOf(t0)
		if byPattern[pi] == nil {
			induced, _ := sched.InducedAt(a, reps[pi])
			xs := make([]xfer, len(induced))
			for gi, tx := range induced {
				core := model.CoreID(a.LocalMemory(tx.Comms[0]))
				xs[gi] = xfer{comms: tx.Comms, core: core, size: dma.TransferSize(a, tx)}
			}
			byPattern[pi] = xs
		}
		st := step{t0: t0, next: a.H, xfers: byPattern[pi]}
		if len(st.xfers) == 0 {
			continue
		}
		if idx+1 < len(instants) {
			st.next = instants[idx+1]
		}
		for _, x := range st.xfers {
			p.coreOvs[x.core] += perXfer * cfg.Hyperperiods
		}
		lo := len(rels)
		for i, task := range a.Sys.Tasks {
			if int64(t0)%int64(task.Period) != 0 {
				continue // not released at this instant
			}
			g := pi*nt + i
			if !grouped[g] {
				ws, rs := a.GroupsFor(t0, task.ID)
				groups[g], grouped[g] = append(ws, rs...), true
			}
			rels = append(rels, release{task: i, comms: groups[g]})
		}
		st.releases = rels[lo:len(rels):len(rels)]
		p.steps = append(p.steps, st)
	}
	return p, nil
}

// Run replays cfg on the plan. cfg must name the plan's Analysis, Sched,
// Protocol and Hyperperiods; Cost, CPUCost, Inject, Policy and Trace are
// free per run. The returned Result shares no memory with the plan.
func (p *Plan) Run(cfg Config) (*Result, error) {
	res, _, err := p.run(cfg, false)
	return res, err
}

// RunUnlessSpilled is Run for callers that only need runs in which every
// communication sequence ends inside its window, such as the search for
// the largest slowdown that keeps LET semantics. It stops the replay at
// the first sequence that spills past the next communication instant (a
// Property 3 violation) and then reports spilled with no Result, without
// scheduling the cores. Otherwise it returns Run's Result.
func (p *Plan) RunUnlessSpilled(cfg Config) (res *Result, spilled bool, err error) {
	return p.run(cfg, true)
}

// Spills reports whether the fault-free replay of cfg spills a
// communication sequence past its window (a Property 3 violation), as
// RunUnlessSpilled would, without replaying anything. Until the first
// spill every sequence starts at its own instant and books its
// transfers back to back, each costing TransferCost of its size (for
// Giotto-CPU, the CPU copy slice and then the ISR), so a sequence spills
// exactly when those costs sum past its window: Constraint 10 at cfg's
// cost model. cfg must match the plan, as for Run; Inject, Policy and
// Trace are ignored.
func (p *Plan) Spills(cfg Config) (bool, error) {
	cost, err := p.copyModel(&cfg)
	if err != nil {
		return false, err
	}
	for si := range p.steps {
		st := &p.steps[si]
		left := st.next - st.t0
		for gi := range st.xfers {
			if left -= cost.TransferCost(st.xfers[gi].size); left < 0 {
				return true, nil
			}
		}
	}
	return false, nil
}

// copyModel validates cfg against the plan, defaults its CPU cost model,
// and returns the cost model the protocol's copies follow: CPUCost under
// Giotto-CPU, Cost otherwise.
func (p *Plan) copyModel(cfg *Config) (dma.CostModel, error) {
	if err := cfg.validate(); err != nil {
		return dma.CostModel{}, err
	}
	if cfg.Hyperperiods == 0 {
		cfg.Hyperperiods = 1
	}
	if cfg.Analysis != p.a || cfg.Sched != p.sched || cfg.Protocol != p.protocol || cfg.Hyperperiods != p.hyperperiods {
		return dma.CostModel{}, fmt.Errorf("sim: Config does not match the plan (Analysis, Sched, Protocol and Hyperperiods must be the plan's)")
	}
	if cfg.CPUCost.CopyNsDen == 0 {
		cfg.CPUCost = dma.CPUCopyCostModel()
	}
	if p.protocol == GiottoCPU {
		return cfg.CPUCost, nil
	}
	return cfg.Cost, nil
}

// run is Run, stopping at the first spilled window when stopAtSpill is
// set (see RunUnlessSpilled).
func (p *Plan) run(cfg Config, stopAtSpill bool) (*Result, bool, error) {
	cost, err := p.copyModel(&cfg)
	if err != nil {
		return nil, false, err
	}
	a := p.a
	w := &p.ws
	tl := p.replay(cost, cfg.Trace, cfg.Inject, cfg.Policy, stopAtSpill)
	if stopAtSpill && tl.p3viol > 0 {
		return nil, true, nil
	}

	res := &Result{
		Stats:               make(map[model.TaskID]*TaskStats, len(a.Sys.Tasks)),
		LatencyAt:           make(map[model.TaskID][]timeutil.Time, len(a.Sys.Tasks)),
		Property3Violations: tl.p3viol,
		Violations:          tl.vs,
		DegradedAt:          tl.degraded,
		Retries:             tl.retries,
		AbortedTransfers:    tl.aborted,
		StaleComms:          tl.stale,
		Halted:              tl.halted,
		HaltedAt:            tl.haltedAt,
	}

	// Per-core job lists, carved once per plan: the core's task jobs in
	// (task, release) order; the position is the FIFO tie-break.
	cores := w.cores
	stats := make([]TaskStats, len(a.Sys.Tasks))
	latency := make([]timeutil.Time, p.numJobs) // carved into LatencyAt
	for i, task := range a.Sys.Tasks {
		st := &stats[i]
		st.Name = task.Name
		res.Stats[task.ID] = st
		ji := p.jobBase[i]
		n := int((p.horizon + task.Period - 1) / task.Period)
		latAt := latency[ji : ji+n : ji+n]
		res.LatencyAt[task.ID] = latAt
		for k, rel := 0, timeutil.Time(0); k < n; k, rel = k+1, rel+task.Period {
			ready := tl.readyAt[ji]
			lat := ready - rel
			st.Jobs++
			st.TotalLatency += lat
			if lat > st.MaxLatency {
				st.MaxLatency = lat
			}
			if tl.staleJob != nil && tl.staleJob[ji] {
				st.StaleReads++
			}
			latAt[k] = lat
			cores[task.Core] = append(cores[task.Core], job{task: task.ID, prio: task.Priority, ready: ready, rem: task.WCET})
			ji++
		}
	}

	for c := range cores {
		segs := w.simulateCore(cores[c], tl.busy[c], cfg.Trace != nil)
		if cfg.Trace != nil {
			track := fmt.Sprintf("core%d", c)
			for _, sg := range segs {
				cfg.Trace.Span(track, a.Sys.Task(sg.j.task).Name, trace.CatJob, sg.start, sg.end-sg.start)
			}
		}
	}
	// Response times: each core's list holds its task jobs in the order
	// they were appended above.
	head := w.head
	clear(head)
	for i, task := range a.Sys.Tasks {
		st := &stats[i]
		jobs := cores[task.Core]
		for rel := timeutil.Time(0); rel < p.horizon; rel += task.Period {
			j := &jobs[head[task.Core]]
			head[task.Core]++
			if resp := j.finish - rel; resp > st.MaxResponse {
				st.MaxResponse = resp
			}
			if j.finish > rel+task.Period {
				st.Misses++
			}
		}
	}
	return res, false, nil
}

// effectiveSchedule resolves the transfer schedule and readiness rule of
// the protocol (per-task readiness only for Proposed). cfg is validated.
func effectiveSchedule(cfg Config) (*dma.Schedule, bool) {
	switch cfg.Protocol {
	case Proposed:
		return cfg.Sched, true
	case GiottoDMAB:
		return dma.GiottoReorder(cfg.Analysis, cfg.Sched), false
	default: // GiottoCPU, GiottoDMAA
		return dma.GiottoPerCommSchedule(cfg.Analysis), false
	}
}

// timeline is the outcome of replaying every communication sequence:
// task readiness, CPU overhead slices, and — under fault injection — the
// structured deviation report. readyAt, staleJob and busy live in the
// plan's workspace; the other fields are handed to the Result as they
// are.
type timeline struct {
	readyAt  []timeutil.Time // per job number (see Plan.jobBase)
	staleJob []bool          // per job number; nil without injection
	// busy[c] lists core c's overhead slices in replay order, which is
	// time order: the single DMA timeline books them one after another,
	// so they never overlap.
	busy     [][]interval
	p3viol   int
	vs       violation.List
	degraded []timeutil.Time
	retries  int
	aborted  int
	stale    int
	halted   bool
	haltedAt timeutil.Time
}

// workspace holds the buffers one replay fills and then discards: the
// timeline's readiness, staleness and per-core busy lists, the
// per-communication stamps, the per-core job lists and the scheduling
// kernel's arrival order and ready heap. Every Run resets it first, so a
// Run on a reused plan is indistinguishable from one on a fresh plan.
type workspace struct {
	tl timeline
	// staleJob is the backing store of tl.staleJob, which is nil in
	// nominal replays.
	staleJob []bool
	// Per-communication completion time and failure of the current
	// sequence, valid only where the stamp equals the sequence number.
	// The sequence number restarts at 1 every replay, so reset clears the
	// stamps; staleSeq is nil until the first faulted replay.
	doneAt   []timeutil.Time
	doneSeq  []int
	staleSeq []int
	// cores holds each core's task jobs, carved once per plan; head
	// walks them when response times are read back.
	cores [][]job
	head  []int
	// Scheduling kernel scratch: the arrival order, its merge buffer and
	// run starts, and the ready heap, all indices into one core's jobs.
	order, merge []int32
	runs         []int
	heap         []int32
}

// reset prepares the workspace for a replay of p, with the injection
// buffers when injected is set, and returns the emptied timeline with
// every job ready at its release.
func (w *workspace) reset(p *Plan, injected bool) *timeline {
	nc := p.a.NumComms()
	if w.tl.readyAt == nil {
		w.tl.readyAt = make([]timeutil.Time, p.numJobs)
		// A faulted replay may outgrow a core's busy list; append then
		// moves that list alone, and the workspace keeps the larger one.
		w.tl.busy = carve[interval](p.coreOvs)
		w.cores = carve[job](p.coreJobs)
		w.head = make([]int, len(p.coreJobs))
		w.doneAt = make([]timeutil.Time, nc)
		w.doneSeq = make([]int, nc)
	}
	w.tl = timeline{readyAt: w.tl.readyAt, busy: w.tl.busy}
	for c := range w.tl.busy {
		w.tl.busy[c] = w.tl.busy[c][:0]
		w.cores[c] = w.cores[c][:0]
	}
	clear(w.doneSeq)
	if injected {
		if w.staleJob == nil {
			w.staleJob = make([]bool, p.numJobs)
			w.staleSeq = make([]int, nc)
		}
		clear(w.staleJob)
		clear(w.staleSeq)
		w.tl.staleJob = w.staleJob
	}
	for i, task := range p.a.Sys.Tasks {
		ji := p.jobBase[i]
		for rel := timeutil.Time(0); rel < p.horizon; rel += task.Period {
			w.tl.readyAt[ji] = rel // until a sequence makes the job wait
			ji++
		}
	}
	return &w.tl
}

// carve returns one empty list per entry of caps, each with that
// capacity, all backed by one allocation.
func carve[T any](caps []int) [][]T {
	total := 0
	for _, n := range caps {
		total += n
	}
	buf := make([]T, total)
	lists := make([][]T, len(caps))
	off := 0
	for c, n := range caps {
		lists[c] = buf[off : off : off+n]
		off += n
	}
	return lists
}

// markDegraded records that the sequence at absolute instant t deviated
// from the nominal replay. The replay walks instants in increasing order,
// so the list stays sorted when t is appended only if it is new.
func (tl *timeline) markDegraded(t timeutil.Time) {
	if n := len(tl.degraded); n == 0 || tl.degraded[n-1] != t {
		tl.degraded = append(tl.degraded, t)
	}
}

// transferName names induced transfer gi at instant t0 ("d3@5ms") in
// trace spans and violation messages.
func transferName(gi int, t0 timeutil.Time) string {
	return fmt.Sprintf("d%d@%v", gi+1, t0)
}

// charge books one transfer attempt starting at s and returns its end:
// the programming overhead on core, the copy on the DMA and the ISR — or,
// when cpuCopies is set (Giotto-CPU), one CPU slice covering setup and
// copy. name is only read when tr is non-nil.
func (tl *timeline) charge(s timeutil.Time, core model.CoreID, cost dma.CostModel, copyT timeutil.Time, cpuCopies bool, tr *trace.Trace, name string) timeutil.Time {
	prog, isr := cost.ProgramOverhead, cost.ISROverhead
	var track string
	if tr != nil {
		track = fmt.Sprintf("core%d", core)
	}
	busy := &tl.busy[core]
	if cpuCopies {
		*busy = append(*busy, interval{start: s, end: s + prog + copyT})
		if tr != nil {
			tr.Span(track, "copy "+name, trace.CatOverhead, s, prog+copyT)
		}
		return s + prog + copyT + isr
	}
	*busy = append(*busy, interval{start: s, end: s + prog})
	if tr != nil {
		tr.Span(track, "program "+name, trace.CatOverhead, s, prog)
		tr.Span("dma", name, trace.CatCopy, s+prog, copyT)
	}
	s += prog + copyT
	*busy = append(*busy, interval{start: s, end: s + isr})
	if tr != nil {
		tr.Span(track, "isr "+name, trace.CatOverhead, s, isr)
	}
	return s + isr
}

// replay plays the transfer sequences of every communication instant in
// [0, horizon) into the workspace's timeline and returns it: task
// readiness times, CPU overhead slices, the number of Property-3
// violations and, when inj is non-nil, the structured fault report.
// Under Giotto-CPU the copy time itself is also charged to the local
// core. With stopAtSpill set it returns at the first sequence that spills
// past its window, with p3viol = 1 and the rest of the timeline unplayed.
func (p *Plan) replay(cost dma.CostModel, tr *trace.Trace, inj Injector, policy DegradePolicy, stopAtSpill bool) *timeline {
	a := p.a
	cpuCopies := p.protocol == GiottoCPU
	tl := p.ws.reset(p, inj != nil)
	doneAt, doneSeq := p.ws.doneAt, p.ws.doneSeq
	var staleSeq []int
	if inj != nil {
		staleSeq = p.ws.staleSeq
	}
	seq := 0

	dmaFree := timeutil.Time(0) // when the engine finished the previous burst
	for hp := timeutil.Time(0); hp < p.horizon && !tl.halted; hp += a.H {
		for si := range p.steps {
			st := &p.steps[si]
			t, next := hp+st.t0, hp+st.next
			seq++
			s := t
			if dmaFree > s {
				s = dmaFree // previous burst spilled over (Property 3 broken)
				if inj != nil {
					tl.markDegraded(t)
				}
			}
			hardFault := false
			for gi := range st.xfers {
				tx := &st.xfers[gi]
				nominal := cost.CopyCost(tx.size)
				var name string
				if tr != nil {
					name = transferName(gi, st.t0)
				}

				if inj == nil {
					// Nominal replay: exactly the paper's cost model.
					s = tl.charge(s, tx.core, cost, nominal, cpuCopies, tr, name)
					for _, z := range tx.comms {
						doneAt[z], doneSeq[z] = s, seq
					}
					continue
				}

				// Faulted replay: attempt / backoff / retry loop.
				prog, isr := cost.ProgramOverhead, cost.ISROverhead
				done, failed := false, false
				budget := inj.MaxRetries()
				wait := timeutil.Time(0) // backoff owed before the next attempt
				for attempt := 0; ; attempt++ {
					copyT, verdict := inj.Attempt(t, gi, attempt, nominal)
					if copyT != nominal {
						tl.markDegraded(t)
					}
					if verdict == AttemptDropped {
						tl.vs.Addf(violation.RetryExhausted, "Section V (runtime)",
							"transfer %s hard-dropped by the DMA engine", transferName(gi, st.t0))
						failed = true
						break
					}
					if policy == AbortTransfer && s+wait+prog+copyT+isr > next {
						// The next attempt (including its backoff) cannot
						// complete inside the window: skip the transfer
						// instead of breaking Property 3. The owed backoff
						// is not charged — the engine would not have waited.
						tl.vs.Addf(violation.Overrun, "Constraint 10",
							"transfer %s: attempt %d would end %v past the window end %v; aborted",
							transferName(gi, st.t0), attempt+1, s+wait+prog+copyT+isr-next, next)
						failed = true
						break
					}
					attName := name
					if attempt > 0 {
						if tr != nil {
							attName = fmt.Sprintf("%s#retry%d", name, attempt)
						}
						tl.retries++
						tl.markDegraded(t)
					}
					s = tl.charge(s+wait, tx.core, cost, copyT, cpuCopies, tr, attName)
					if verdict == AttemptOK {
						done = true
						break
					}
					// Transient error: the attempt's time is spent; back off
					// and retry while budget remains.
					if attempt >= budget {
						tl.vs.Addf(violation.RetryExhausted, "Section V (runtime)",
							"transfer %s failed %d attempts (budget %d retries)", transferName(gi, st.t0), attempt+1, budget)
						failed = true
						break
					}
					tl.markDegraded(t)
					wait = inj.Backoff(attempt + 1)
				}
				if done {
					for _, z := range tx.comms {
						doneAt[z], doneSeq[z] = s, seq
					}
					continue
				}
				if failed {
					tl.aborted++
					hardFault = true
					tl.markDegraded(t)
					for _, z := range tx.comms {
						staleSeq[z] = seq
						tl.stale++
						tl.vs.Addf(violation.StaleRead, "Section V (runtime)",
							"%s at t=%v reads the previous-cycle value (transfer %s did not complete)",
							a.CommString(z), t, transferName(gi, st.t0))
					}
					if policy == FailFast {
						break
					}
				}
			}
			end := s
			dmaFree = end
			// Property 3 bookkeeping. Under the abort policy a faulted run
			// never spills (aborts keep the sequence inside the window).
			if end > next {
				tl.p3viol++
				if stopAtSpill {
					return tl
				}
				if inj != nil {
					tl.vs.Addf(violation.Overrun, "Constraint 10",
						"sequence at t=%v ends %v past the window end %v", t, end-next, next)
					tl.markDegraded(t)
					hardFault = true
				}
			}
			if inj != nil && policy == FailFast && hardFault {
				tl.halted = true
				tl.haltedAt = t
				// Releases at the halt instant keep their default
				// (release-time) readiness; the run is declared halted.
				break
			}
			// Readiness.
			perTask := p.perTask && !(inj != nil && policy == WaitAll && hardFault)
			for _, r := range st.releases {
				task := a.Sys.Tasks[r.task]
				ji := p.jobBase[r.task] + int(t/task.Period)
				ready := end
				if perTask {
					ready = t
					for _, z := range r.comms {
						if doneSeq[z] == seq && doneAt[z] > ready {
							ready = doneAt[z]
						}
					}
				}
				// Otherwise Giotto readiness — also the WaitAll fallback for
				// an instant with an unrecoverable fault or overrun.
				tl.readyAt[ji] = ready
				if staleSeq != nil && slices.ContainsFunc(r.comms, func(z int) bool { return staleSeq[z] == seq }) {
					tl.staleJob[ji] = true
				}
				if tr != nil && ready > t {
					tr.Mark(fmt.Sprintf("core%d", task.Core), task.Name+" ready", trace.CatReady, ready)
				}
			}
		}
	}
	return tl
}

// job is one task job on a core. A job's position in its core's list is
// its sequence number, the FIFO tie-break. Overhead slices are not jobs:
// the kernel treats them as busy intervals.
type job struct {
	task   model.TaskID
	prio   int
	ready  timeutil.Time
	rem    timeutil.Time
	finish timeutil.Time // set by simulateCore
}

// readyHeap is a binary min-heap of indices into jobs under the strict
// total order (prio, ready, index). The order is total, so the top is the
// same whatever the heap's layout.
type readyHeap struct {
	jobs []job
	idx  []int32
}

func (h *readyHeap) less(x, y int32) bool {
	jx, jy := &h.jobs[x], &h.jobs[y]
	if jx.prio != jy.prio {
		return jx.prio < jy.prio
	}
	if jx.ready != jy.ready {
		return jx.ready < jy.ready
	}
	return x < y
}

func (h *readyHeap) push(x int32) {
	i := len(h.idx)
	h.idx = append(h.idx, x)
	for i > 0 {
		up := (i - 1) / 2
		if !h.less(x, h.idx[up]) {
			break
		}
		h.idx[i] = h.idx[up]
		i = up
	}
	h.idx[i] = x
}

// pop removes the top.
func (h *readyHeap) pop() {
	n := len(h.idx) - 1
	x := h.idx[n]
	h.idx = h.idx[:n]
	if n == 0 {
		return
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h.less(h.idx[c+1], h.idx[c]) {
			c++
		}
		if !h.less(h.idx[c], x) {
			break
		}
		h.idx[i] = h.idx[c]
		i = c
	}
	h.idx[i] = x
}

// segment is one contiguous execution slice of a job on its core.
type segment struct {
	j          *job
	start, end timeutil.Time
}

// simulateCore runs preemptive fixed-priority scheduling of the core's
// task jobs around busy, the core's overhead slices in time order,
// setting each job's finish time. The slices outrank every task and
// never overlap, so each one holds the core for exactly [start, end):
// execution stops at a slice's start, even a zero-length one, and
// resumes at its end. The task execution segments are recorded only when
// traced is set.
func (w *workspace) simulateCore(jobs []job, busy []interval, traced bool) []segment {
	var segs []segment
	arrivals := w.arrivalOrder(jobs)
	ready := readyHeap{jobs: jobs, idx: w.heap[:0]}
	now := timeutil.Time(0)
	i, b := 0, 0
	for i < len(arrivals) || len(ready.idx) > 0 {
		if len(ready.idx) == 0 && now < jobs[arrivals[i]].ready {
			now = jobs[arrivals[i]].ready
		}
		// The slices begun by now hold the core to their ends; an idle
		// core may have skipped to an arrival inside one.
		for b < len(busy) && busy[b].start <= now {
			now = max(now, busy[b].end)
			b++
		}
		for i < len(arrivals) && jobs[arrivals[i]].ready <= now {
			ready.push(arrivals[i])
			i++
		}
		j := &jobs[ready.idx[0]]
		if j.rem == 0 {
			j.finish = now
			ready.pop()
			continue
		}
		// Run until completion, the next arrival or the next slice,
		// whichever is first; every arrival and slice start up to now is
		// consumed, so until lies past now.
		until := now + j.rem
		if i < len(arrivals) {
			until = min(until, jobs[arrivals[i]].ready)
		}
		if b < len(busy) {
			until = min(until, busy[b].start)
		}
		if traced {
			segs = append(segs, segment{j: j, start: now, end: until})
		}
		// Preempted or not, an unfinished j stays in the heap: rem is not
		// part of the order.
		j.rem -= until - now
		now = until
		if j.rem == 0 {
			j.finish = now
			ready.pop()
		}
	}
	w.heap = ready.idx
	return segs
}

// arrivalOrder returns the indices of jobs ordered by (ready, index),
// i.e. stably by readiness. The list is a concatenation of a few long
// runs already in that order — each task's releases — so merging its
// maximal runs pairwise costs O(n log runs) where a comparison sort
// costs O(n log n). The result lives in the workspace until the next
// call.
func (w *workspace) arrivalOrder(jobs []job) []int32 {
	n := len(jobs)
	a := growIdx(w.order, n)
	runs := append(w.runs[:0], 0) // run starts, then n
	for i := range jobs {
		a[i] = int32(i)
		if i > 0 && jobs[i].ready < jobs[i-1].ready {
			runs = append(runs, i)
		}
	}
	runs = append(runs, n)
	b := w.merge
	if len(runs) > 2 {
		b = growIdx(b, n)
	}
	for len(runs) > 2 {
		// Merge runs 2k and 2k+1 into b. Runs stay contiguous in index,
		// so taking the left run on equal readiness keeps index order.
		wr := 0
		for r := 0; r+1 < len(runs); r += 2 {
			lo, mid, hi := runs[r], runs[r+1], runs[r+1]
			if r+2 < len(runs) {
				hi = runs[r+2]
			}
			i, j, k := lo, mid, lo
			for ; i < mid && j < hi; k++ {
				if jobs[a[j]].ready < jobs[a[i]].ready {
					b[k] = a[j]
					j++
				} else {
					b[k] = a[i]
					i++
				}
			}
			k += copy(b[k:], a[i:mid])
			copy(b[k:], a[j:hi])
			runs[wr] = lo
			wr++
		}
		runs[wr] = n
		runs = runs[:wr+1]
		a, b = b, a
	}
	w.order, w.merge, w.runs = a, b, runs
	return a
}

// growIdx returns buf resliced to n, reallocated with headroom when its
// capacity is short.
func growIdx(buf []int32, n int) []int32 {
	if cap(buf) < n {
		buf = make([]int32, n, n+n/4)
	}
	return buf[:n]
}
