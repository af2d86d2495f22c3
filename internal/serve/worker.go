package serve

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"time"

	"letdma/internal/dma"
	"letdma/internal/experiments"
	"letdma/internal/let"
	"letdma/internal/milp"
	"letdma/internal/model"
	"letdma/internal/verify"
)

// stopCauseInterrupt matches milp.StopInterrupt.String(); solveAttempt
// records it on JobResult.StopCause and runJob keys the deadline-vs-drain
// classification off it.
const stopCauseInterrupt = "interrupt"

// worker is one solver worker. A panic escaping a job — the solver stack
// is not supposed to panic, but robustness is the point of this service —
// is converted into a structured failure for the in-flight job and the
// worker is replaced, so one poisoned instance cannot take the pool down.
func (s *Server) worker(id int) {
	defer func() {
		if r := recover(); r != nil {
			s.recoverWorker(id, r)
			return // the replacement worker inherits the WaitGroup slot
		}
		s.wg.Done()
	}()
	for {
		j, ok := s.q.pop()
		if !ok {
			return
		}
		s.runJob(id, j)
	}
}

// recoverWorker journals the panicked job as failed (a panic is
// deterministic for a given spec — it is not retried) and spawns a
// replacement worker under the same WaitGroup slot.
func (s *Server) recoverWorker(id int, r any) {
	s.mu.Lock()
	j := s.running[id]
	delete(s.running, id)
	var attempts int
	if j != nil {
		j.stopper = nil
		attempts = j.Attempts
	}
	s.mu.Unlock()
	if j != nil {
		s.complete(j, &JobResult{
			State:    StateFailed,
			Attempts: attempts,
			Error:    fmt.Sprintf("solver panic: %v", r),
		})
	}
	s.logf("worker %d: recovered from solver panic: %v; restarting", id, r)
	go s.worker(id)
}

// runJob executes one attempt of j on worker id and classifies the
// outcome: done / infeasible / failed are terminal; a transient fault
// within the retry budget re-queues the job after an exponential backoff;
// an interrupt stop is a deadline completion (with the anytime incumbent)
// when this job's deadline expired, or a non-terminal "interrupted"
// journal entry when the daemon is draining.
func (s *Server) runJob(id int, j *Job) {
	s.mu.Lock()
	if s.draining || j.State.Terminal() {
		s.mu.Unlock()
		return
	}
	j.State = StateRunning
	j.Attempts++
	attempt := j.Attempts
	stopper := NewStopper()
	j.stopper = stopper
	s.running[id] = j
	s.mu.Unlock()

	if err := s.journal.Append(journalRecord{Rec: "start", Key: j.Key, Attempt: attempt}); err != nil {
		// Run anyway: replay tolerates submit→done without a start, and
		// dropping the job over a bookkeeping write would be worse.
		s.logf("job %s: journal start failed: %v", shortKey(j.Key), err)
	}
	deadline := j.Spec.Deadline
	if deadline <= 0 {
		deadline = s.cfg.DefaultDeadline
	}
	cancel := stopper.StopAfter(deadline)
	res, transient := s.solveAttempt(j.Spec, stopper)
	cancel()
	res.Attempts = attempt

	s.mu.Lock()
	delete(s.running, id)
	j.stopper = nil
	draining := s.draining
	s.mu.Unlock()

	if res.StopCause == stopCauseInterrupt {
		if stopper.Expired() {
			// The per-job deadline cut the solve short: a completed job
			// with the anytime incumbent, distinct status, no retry.
			res.State = StateDeadline
			s.complete(j, res)
			return
		}
		// Interrupted for another reason — the drain. Journal the
		// incumbent under the non-terminal state so the next start
		// re-queues the job.
		res.State = StateInterrupted
		s.complete(j, res)
		return
	}

	if transient != "" && !draining && attempt <= s.retryBudget() {
		if err := s.journal.Append(journalRecord{Rec: "retry", Key: j.Key, Attempt: attempt, Cause: transient}); err != nil {
			s.logf("job %s: journal retry failed: %v", shortKey(j.Key), err)
		}
		s.mu.Lock()
		j.State = StateQueued
		s.mu.Unlock()
		backoff := s.cfg.RetryBackoff << (attempt - 1)
		s.logf("job %s: transient fault (%s); retry %d/%d in %v",
			shortKey(j.Key), transient, attempt, s.retryBudget(), backoff)
		// The timer outlives a drain harmlessly: push is a no-op on the
		// closed queue and the retry record already marks the job pending.
		time.AfterFunc(backoff, func() { s.q.push(j) })
		return
	}
	if transient != "" {
		// Retries exhausted (or drain pending): finalize. An incumbent is
		// still a usable answer — record it as done-but-uncertified; with
		// no incumbent the job failed.
		res.Error = fmt.Sprintf("transient fault persisted after %d attempts: %s", attempt, transient)
		if !res.HasIncumbent() {
			res.State = StateFailed
		}
	}
	s.complete(j, res)
}

// retryBudget returns the number of allowed retries (>= 0).
func (s *Server) retryBudget() int {
	if s.cfg.MaxRetries < 0 {
		return 0
	}
	return s.cfg.MaxRetries
}

// complete journals the outcome (journal first — it is the source of
// truth) and publishes it to the in-memory table.
func (s *Server) complete(j *Job, res *JobResult) {
	if err := s.journal.Append(journalRecord{Rec: "done", Key: j.Key, Result: res}); err != nil {
		s.logf("job %s: journal done failed: %v", shortKey(j.Key), err)
	}
	s.mu.Lock()
	j.Result = res
	j.State = res.State
	if res.State.Terminal() {
		s.incomplete--
		close(j.done)
	}
	s.mu.Unlock()
	s.logf("job %s: %s (attempt %d)", shortKey(j.Key), res.State, res.Attempts)
}

// solveAttempt runs one solve under the stopper's interrupt channel and
// returns the structured result plus the transient-fault cause ("" when
// the outcome is deterministic). Transient causes — retried with backoff —
// are exactly the MILP kernel's numerical retreat and a failed FastSearch
// optimality certificate; everything else is final.
func (s *Server) solveAttempt(spec JobSpec, stopper *Stopper) (*JobResult, string) {
	if s.cfg.testSolve != nil {
		return s.cfg.testSolve(spec, stopper)
	}
	start := time.Now()
	res, transient := s.solve(spec, stopper)
	res.SolveTime = time.Since(start)
	return res, transient
}

func (s *Server) solve(spec JobSpec, stopper *Stopper) (*JobResult, string) {
	sys, err := model.FromJSON(bytes.NewReader(spec.System))
	if err != nil {
		return &JobResult{State: StateFailed, Error: err.Error()}, ""
	}
	a, err := let.Analyze(sys)
	if err != nil {
		return &JobResult{State: StateFailed, Error: err.Error()}, ""
	}
	cfg, err := specConfig(spec, stopper.C())
	if err != nil {
		return &JobResult{State: StateFailed, Error: err.Error()}, ""
	}
	solved, err := experiments.SolveProposed(a, cfg)
	if err != nil {
		// The combinatorial stage rejects infeasible instances (e.g. an
		// alpha too tight for any layout) with a decided, cacheable error.
		if errors.Is(err, experiments.ErrInfeasible) {
			return &JobResult{State: StateInfeasible, Error: err.Error()}, ""
		}
		return &JobResult{State: StateFailed, Error: err.Error()}, ""
	}
	res := &JobResult{
		State:        StateDone,
		MILPStatus:   solved.MILPStatus,
		Objective:    solved.Objective,
		NumTransfers: solved.NumTransfers,
		Schedule:     renderSchedule(a, solved.Sched),
	}
	milpRes := solved.MILP
	if milpRes == nil {
		// Combinatorial-only solve: complete and deterministic.
		return res, ""
	}
	if milpRes.StopCause != milp.StopNone {
		res.StopCause = milpRes.StopCause.String()
	}
	if milpRes.Status == milp.StatusInfeasible {
		res.State = StateInfeasible
		res.Schedule = nil
		res.NumTransfers = 0
		return res, ""
	}
	if milpRes.StopCause == milp.StopNumerical {
		return res, "milp kernel numerical-limit stop"
	}
	if cfg.FastSearch && milpRes.StopCause != milp.StopInterrupt {
		// FastSearch has no deterministic trajectory to audit, so every
		// result is certified before it can enter the cache. A failed
		// certificate is treated as transient: the engine is allowed to be
		// nondeterministic, not wrong, so the retry re-runs the search.
		vs := verify.CheckOptimal(a, dma.DefaultCostModel(), solved.Gamma, cfg.Objective, milpRes,
			verify.OptimalOptions{TimeLimit: s.cfg.CertTimeLimit, Slots: spec.Slots})
		if len(vs) > 0 {
			return res, "optimality certificate failed: " + vs[0].String()
		}
		res.Certified = true
	}
	return res, ""
}

// renderSchedule prints the incumbent schedule, one line per transfer,
// each line the transfer's communications in the paper's notation.
func renderSchedule(a *let.Analysis, sched *dma.Schedule) []string {
	if sched == nil {
		return nil
	}
	out := make([]string, 0, len(sched.Transfers))
	for _, tr := range sched.Transfers {
		parts := make([]string, 0, len(tr.Comms))
		for _, z := range tr.Comms {
			parts = append(parts, a.CommString(z))
		}
		out = append(out, strings.Join(parts, " "))
	}
	return out
}
