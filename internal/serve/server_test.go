package serve

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitTerminal polls until key is terminal or the deadline passes.
func waitTerminal(t *testing.T, s *Server, key string) JobStatus {
	t.Helper()
	done := s.doneChan(key)
	if done == nil {
		t.Fatalf("job %s unknown", key)
	}
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("job %s never reached a terminal state", key)
	}
	st, ok := s.Status(key)
	if !ok {
		t.Fatalf("job %s vanished", key)
	}
	return st
}

// incumbent is the canned anytime result the test solver returns.
func incumbent() *JobResult {
	return &JobResult{State: StateDone, Objective: 2, NumTransfers: 1, Schedule: []string{"W(a, b) R(c, a)"}}
}

// TestDeadlineReturnsIncumbent locks the headline deadline contract on
// the scheduling machinery: a job whose wall-clock deadline expires
// mid-solve completes with state "deadline" and its anytime incumbent —
// not an error — and the result is cached like any other terminal state.
func TestDeadlineReturnsIncumbent(t *testing.T) {
	cfg := Config{JournalPath: filepath.Join(t.TempDir(), "j"), Workers: 1}
	cfg.testSolve = func(spec JobSpec, st *Stopper) (*JobResult, string) {
		<-st.C() // hold the solve until the per-job deadline fires
		res := incumbent()
		res.StopCause = stopCauseInterrupt
		return res, ""
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := s.Shutdown(); err != nil {
			t.Error(err)
		}
	}()
	s.Start()

	spec := testSpec(0.3)
	spec.Deadline = 20 * time.Millisecond
	st, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, s, st.Key)
	if final.State != StateDeadline {
		t.Fatalf("state = %s, want %s", final.State, StateDeadline)
	}
	if !final.Result.HasIncumbent() {
		t.Error("deadline result lost the anytime incumbent")
	}
	if final.Result.Attempts != 1 {
		t.Errorf("deadline job retried: attempts = %d", final.Result.Attempts)
	}
	// Terminal: resubmitting the identical spec is a pure cache hit.
	again, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if again.State != StateDeadline || again.Result == nil {
		t.Errorf("resubmit of deadline job = %+v; want cached deadline result", again)
	}
}

// TestRetryTransientThenSucceed: transient faults are retried with
// backoff up to the budget; the eventual success records the true
// attempt count.
func TestRetryTransientThenSucceed(t *testing.T) {
	var calls atomic.Int32
	cfg := Config{
		JournalPath: filepath.Join(t.TempDir(), "j"), Workers: 1,
		MaxRetries: 2, RetryBackoff: time.Millisecond,
	}
	cfg.testSolve = func(spec JobSpec, st *Stopper) (*JobResult, string) {
		if calls.Add(1) < 3 {
			return &JobResult{State: StateDone}, "milp kernel numerical-limit stop"
		}
		return incumbent(), ""
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := s.Shutdown(); err != nil {
			t.Error(err)
		}
	}()
	s.Start()
	st, err := s.Submit(testSpec(0.3))
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, s, st.Key)
	if final.State != StateDone || final.Result.Attempts != 3 {
		t.Fatalf("state=%s attempts=%d; want done after 3 attempts", final.State, final.Result.Attempts)
	}
}

// TestRetryExhaustion: a persistent transient fault stops at the retry
// budget; with an incumbent in hand the job is still done (uncertified,
// error noted), without one it fails.
func TestRetryExhaustion(t *testing.T) {
	var withInc atomic.Bool
	var calls atomic.Int32
	cfg := Config{
		JournalPath: filepath.Join(t.TempDir(), "j"), Workers: 1,
		MaxRetries: 1, RetryBackoff: time.Millisecond,
	}
	cfg.testSolve = func(spec JobSpec, st *Stopper) (*JobResult, string) {
		calls.Add(1)
		if withInc.Load() {
			return incumbent(), "optimality certificate failed: fixture"
		}
		return &JobResult{State: StateDone}, "milp kernel numerical-limit stop"
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := s.Shutdown(); err != nil {
			t.Error(err)
		}
	}()
	s.Start()

	st, err := s.Submit(testSpec(0.3))
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, s, st.Key)
	if final.State != StateFailed || final.Result.Attempts != 2 {
		t.Fatalf("no-incumbent exhaustion: state=%s attempts=%d; want failed after 2", final.State, final.Result.Attempts)
	}
	if !strings.Contains(final.Result.Error, "transient fault persisted") {
		t.Errorf("error = %q", final.Result.Error)
	}

	withInc.Store(true)
	calls.Store(0)
	st2, err := s.Submit(testSpec(0.4))
	if err != nil {
		t.Fatal(err)
	}
	final2 := waitTerminal(t, s, st2.Key)
	if final2.State != StateDone || final2.Result.Certified {
		t.Fatalf("incumbent exhaustion: state=%s certified=%t; want uncertified done", final2.State, final2.Result.Certified)
	}
	if final2.Result.Error == "" || !final2.Result.HasIncumbent() {
		t.Errorf("incumbent exhaustion result = %+v", final2.Result)
	}
}

// TestDeterministicFailureNotRetried: a plain failure is final on the
// first attempt.
func TestDeterministicFailureNotRetried(t *testing.T) {
	var calls atomic.Int32
	cfg := Config{JournalPath: filepath.Join(t.TempDir(), "j"), Workers: 1, MaxRetries: 3, RetryBackoff: time.Millisecond}
	cfg.testSolve = func(spec JobSpec, st *Stopper) (*JobResult, string) {
		calls.Add(1)
		return &JobResult{State: StateFailed, Error: "no such layout"}, ""
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := s.Shutdown(); err != nil {
			t.Error(err)
		}
	}()
	s.Start()
	st, err := s.Submit(testSpec(0.3))
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, s, st.Key)
	if final.State != StateFailed || calls.Load() != 1 {
		t.Fatalf("state=%s calls=%d; want one failed attempt", final.State, calls.Load())
	}
}

// TestPanicIsolation: a solver panic becomes a structured job failure,
// and the replacement worker keeps serving later jobs.
func TestPanicIsolation(t *testing.T) {
	cfg := Config{JournalPath: filepath.Join(t.TempDir(), "j"), Workers: 1}
	cfg.testSolve = func(spec JobSpec, st *Stopper) (*JobResult, string) {
		if spec.Alpha != nil && *spec.Alpha == 0.3 {
			panic("poisoned instance")
		}
		return incumbent(), ""
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := s.Shutdown(); err != nil {
			t.Error(err)
		}
	}()
	s.Start()

	bad, err := s.Submit(testSpec(0.3))
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, s, bad.Key)
	if final.State != StateFailed || !strings.Contains(final.Result.Error, "solver panic") {
		t.Fatalf("panicked job = %+v; want structured panic failure", final.Result)
	}

	good, err := s.Submit(testSpec(0.4))
	if err != nil {
		t.Fatal(err)
	}
	if got := waitTerminal(t, s, good.Key); got.State != StateDone {
		t.Fatalf("job after panic = %s; want done (worker restarted)", got.State)
	}
}

// TestBackpressure: past QueueCap incomplete jobs, Submit refuses with
// ErrQueueFull; capacity frees as jobs complete. Deduped resubmits of an
// admitted job never count twice.
func TestBackpressure(t *testing.T) {
	release := make(chan struct{})
	cfg := Config{JournalPath: filepath.Join(t.TempDir(), "j"), Workers: 1, QueueCap: 2}
	cfg.testSolve = func(spec JobSpec, st *Stopper) (*JobResult, string) {
		<-release
		return incumbent(), ""
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := s.Shutdown(); err != nil {
			t.Error(err)
		}
	}()
	s.Start()

	a, err := s.Submit(testSpec(0.3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(testSpec(0.4)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(testSpec(0.3)); err != nil {
		t.Fatalf("dedup resubmit counted against the cap: %v", err)
	}
	if _, err := s.Submit(testSpec(0.5)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-cap submit: err = %v; want ErrQueueFull", err)
	}

	close(release)
	waitTerminal(t, s, a.Key)
	// At least one slot is free now; the refused spec is admittable.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, err := s.Submit(testSpec(0.5)); err == nil {
			break
		} else if !errors.Is(err, ErrQueueFull) {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatal("queue never freed capacity")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAdmissionSlots pins which jobs hold an admission slot against
// QueueCap 1. A job waiting out a retry backoff, one journaled as
// interrupted, and a pending job replayed from the journal keep their
// slot, so the next new spec is refused; a deadline or failed completion
// frees it.
func TestAdmissionSlots(t *testing.T) {
	interrupt := func(JobSpec, *Stopper) (*JobResult, string) {
		res := incumbent()
		res.StopCause = stopCauseInterrupt
		return res, ""
	}
	for _, tc := range []struct {
		name     string
		solve    func(JobSpec, *Stopper) (*JobResult, string)
		deadline time.Duration
		settled  State // the state the first job rests in after one attempt
		holds    bool
	}{
		{"retry", func(JobSpec, *Stopper) (*JobResult, string) {
			return &JobResult{State: StateDone}, "milp kernel numerical-limit stop"
		}, 0, StateQueued, true},
		{"interrupted", interrupt, 0, StateInterrupted, true},
		{"deadline", func(spec JobSpec, st *Stopper) (*JobResult, string) {
			<-st.C()
			return interrupt(spec, st)
		}, 20 * time.Millisecond, StateDeadline, false},
		{"failed", func(JobSpec, *Stopper) (*JobResult, string) {
			return &JobResult{State: StateFailed, Error: "fixture"}, ""
		}, 0, StateFailed, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{JournalPath: filepath.Join(t.TempDir(), "j"), Workers: 1, QueueCap: 1, RetryBackoff: time.Hour}
			cfg.testSolve = tc.solve
			s := startServer(t, cfg)
			spec := testSpec(0.3)
			spec.Deadline = tc.deadline
			first, err := s.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			waitSettled(t, s, first.Key, tc.settled)
			_, err = s.Submit(testSpec(0.4))
			if tc.holds && !errors.Is(err, ErrQueueFull) {
				t.Fatalf("%s job freed its slot: err = %v; want ErrQueueFull", tc.settled, err)
			}
			if !tc.holds && err != nil {
				t.Fatalf("%s job kept its slot: %v", tc.settled, err)
			}
		})
	}

	t.Run("replayed pending", func(t *testing.T) {
		journal := filepath.Join(t.TempDir(), "j")
		pendSpec, pendKey := mustNormalize(t, testSpec(0.3))
		writeJournalLines(t, journal, mustJSONLine(t, journalRecord{Rec: "submit", Key: pendKey, Spec: &pendSpec}))
		release := make(chan struct{})
		cfg := Config{JournalPath: journal, Workers: 1, QueueCap: 1}
		cfg.testSolve = func(spec JobSpec, st *Stopper) (*JobResult, string) {
			select {
			case <-release:
			case <-st.C():
			}
			return incumbent(), ""
		}
		s := startServer(t, cfg)
		if _, err := s.Submit(testSpec(0.4)); !errors.Is(err, ErrQueueFull) {
			t.Fatalf("replayed pending job not counted: err = %v; want ErrQueueFull", err)
		}
		close(release)
		waitTerminal(t, s, pendKey)
		if _, err := s.Submit(testSpec(0.4)); err != nil {
			t.Fatalf("completed replayed job kept its slot: %v", err)
		}
	})
}

// startServer builds and starts a server that is shut down when the test
// ends.
func startServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := s.Shutdown(); err != nil {
			t.Error(err)
		}
	})
	s.Start()
	return s
}

// waitSettled polls until key has finished its first attempt and rests in
// state want.
func waitSettled(t *testing.T, s *Server, key string, want State) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if st, ok := s.Status(key); ok && st.Attempts == 1 && st.State == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never settled in state %s", key, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDrainJournalsInFlightIncumbent: Shutdown interrupts a running job,
// journals its incumbent under the non-terminal interrupted state, and a
// new server over the same journal resumes it as pending — never
// double-reporting it complete.
func TestDrainJournalsInFlightIncumbent(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "j")
	started := make(chan struct{}, 1)
	cfg := Config{JournalPath: journal, Workers: 1}
	cfg.testSolve = func(spec JobSpec, st *Stopper) (*JobResult, string) {
		started <- struct{}{}
		<-st.C() // solve until interrupted
		res := incumbent()
		res.StopCause = stopCauseInterrupt
		return res, ""
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()

	st, err := s.Submit(testSpec(0.3)) // no deadline: only the drain stops it
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if err := s.Shutdown(); err != nil {
		t.Fatal(err)
	}
	after, ok := s.Status(st.Key)
	if !ok || after.State != StateInterrupted {
		t.Fatalf("drained in-flight job = %+v; want interrupted", after)
	}
	if !after.Result.HasIncumbent() {
		t.Error("drain lost the in-flight incumbent")
	}

	// Restart: the job resumes as pending and completes for real.
	cfg2 := cfg
	cfg2.testSolve = func(spec JobSpec, st *Stopper) (*JobResult, string) {
		return incumbent(), ""
	}
	s2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := s2.Shutdown(); err != nil {
			t.Error(err)
		}
	}()
	resumed, ok := s2.Status(st.Key)
	if !ok || resumed.State != StateQueued {
		t.Fatalf("restarted daemon sees job as %+v; want queued", resumed)
	}
	s2.Start()
	if got := waitTerminal(t, s2, st.Key); got.State != StateDone {
		t.Fatalf("resumed job = %s; want done", got.State)
	}
}

// TestRestartResumesPendingAndServesCompleted is the kill -9 acceptance
// scenario: a journal holding one completed and one crashed-mid-solve job
// (submit+start, no done — exactly what a SIGKILL leaves) restarts into a
// served-from-cache result and a re-queued pending job.
func TestRestartResumesPendingAndServesCompleted(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "j")
	doneSpec, doneKey := mustNormalize(t, testSpec(0.3))
	pendSpec, pendKey := mustNormalize(t, testSpec(0.4))
	res := incumbent()
	res.Attempts = 1
	writeJournalLines(t, journal,
		mustJSONLine(t, journalRecord{Rec: "submit", Key: doneKey, Spec: &doneSpec}),
		mustJSONLine(t, journalRecord{Rec: "start", Key: doneKey, Attempt: 1}),
		mustJSONLine(t, journalRecord{Rec: "done", Key: doneKey, Result: res}),
		mustJSONLine(t, journalRecord{Rec: "submit", Key: pendKey, Spec: &pendSpec}),
		mustJSONLine(t, journalRecord{Rec: "start", Key: pendKey, Attempt: 1}),
		// kill -9 here: no done record for pendKey.
	)

	var solved atomic.Int32
	cfg := Config{JournalPath: journal, Workers: 1}
	cfg.testSolve = func(spec JobSpec, st *Stopper) (*JobResult, string) {
		solved.Add(1)
		return incumbent(), ""
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := s.Shutdown(); err != nil {
			t.Error(err)
		}
	}()
	s.Start()

	// The completed job is served from the cache without re-solving.
	cached, err := s.Submit(testSpec(0.3))
	if err != nil {
		t.Fatal(err)
	}
	if cached.State != StateDone || cached.Result == nil || !cached.Result.HasIncumbent() {
		t.Fatalf("completed job after restart = %+v; want cached done", cached)
	}

	// The crashed job re-runs to completion.
	if got := waitTerminal(t, s, pendKey); got.State != StateDone {
		t.Fatalf("resumed job = %s; want done", got.State)
	}
	if n := solved.Load(); n != 1 {
		t.Errorf("solver ran %d times; want 1 (cache must not re-solve)", n)
	}
}

// TestConcurrentSubmitStress hammers admission from many goroutines while
// jobs complete, for the race detector: dedup, cap accounting and journal
// appends must stay coherent.
func TestConcurrentSubmitStress(t *testing.T) {
	cfg := Config{JournalPath: filepath.Join(t.TempDir(), "j"), Workers: 4, QueueCap: 512}
	cfg.testSolve = func(spec JobSpec, st *Stopper) (*JobResult, string) {
		return incumbent(), ""
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := s.Shutdown(); err != nil {
			t.Error(err)
		}
	}()
	s.Start()

	const goroutines = 16
	const perG = 10
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*perG)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				// 20 distinct specs, submitted ~8x each across goroutines.
				alpha := 0.1 + 0.04*float64((g*perG+i)%20)
				if _, err := s.Submit(testSpec(alpha)); err != nil {
					errs <- fmt.Errorf("alpha %g: %w", alpha, err)
					return
				}
				_ = s.List()
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for _, st := range s.List() {
		waitTerminal(t, s, st.Key)
	}
	if got := len(s.List()); got != 20 {
		t.Errorf("distinct jobs = %d, want 20", got)
	}
}

// TestSubmitValidation rejects malformed specs before admission.
func TestSubmitValidation(t *testing.T) {
	cfg := Config{JournalPath: filepath.Join(t.TempDir(), "j")}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := s.Shutdown(); err != nil {
			t.Error(err)
		}
	}()
	neg := -0.5
	bad := []JobSpec{
		{},                           // no system selected
		{Lite: true, Waters: true},   // two systems
		{Lite: true, Solver: "qp"},   // unknown solver
		{Lite: true, Objective: "x"}, // unknown objective
		{Lite: true, Deadline: -1},   // negative budget
		{Lite: true, Alpha: &neg},    // alpha outside [0, 1)
		{System: []byte("not json")}, // unparseable system
	}
	for i, spec := range bad {
		if _, err := s.Submit(spec); err == nil {
			t.Errorf("bad spec %d admitted", i)
		}
	}
}

// TestJobKeyCanonicalization: semantically identical specs share a key;
// solver-relevant knobs split keys; Workers does not.
func TestJobKeyCanonicalization(t *testing.T) {
	_, base := mustNormalize(t, testSpec(0.3))

	same := testSpec(0.3)
	same.Workers = 8 // worker count is a solver contract, not an input
	_, sameKey := mustNormalize(t, same)
	if sameKey != base {
		t.Error("Workers changed the job key")
	}

	fast := testSpec(0.3)
	fast.Fast = true
	_, fastKey := mustNormalize(t, fast)
	if fastKey == base {
		t.Error("Fast did not change the job key")
	}

	dl := testSpec(0.3)
	dl.Deadline = time.Second
	_, dlKey := mustNormalize(t, dl)
	if dlKey == base {
		t.Error("Deadline did not change the job key")
	}

	objDefault := testSpec(0.3)
	objDefault.Objective = "del" // explicit default == implicit default
	_, objKey := mustNormalize(t, objDefault)
	if objKey != base {
		t.Error("explicit default objective changed the job key")
	}
}
