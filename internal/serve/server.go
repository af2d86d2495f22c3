// Package serve is the letdmad job service: a crash-tolerant HTTP front
// end over the solver stack (combopt / MILP / FastSearch) where
// robustness is the headline contract.
//
//   - Admission is bounded: at most Config.QueueCap incomplete jobs are
//     admitted; past that, submissions are refused with backpressure
//     (HTTP 429 + Retry-After) instead of unbounded memory growth.
//   - Every job runs under a wall-clock deadline wired to the solver's
//     cooperative interrupt (milp.Params.Interrupt): an expired job is
//     stopped at the next node boundary and completes with state
//     "deadline" and its anytime incumbent — never a hard kill.
//   - Solver panics are isolated per worker: the panic becomes a
//     structured job failure and a fresh worker replaces the crashed one.
//   - Transient faults (the MILP kernel's numerical retreat, a failed
//     FastSearch optimality certificate) are retried with bounded
//     exponential backoff; deterministic failures are not.
//   - Every transition is journaled (append-only, fsync'd, keyed by the
//     canonical scenario hash): a restarted daemon resumes pending jobs
//     and serves completed ones from the content-addressed result cache.
//   - Shutdown drains: admission stops, in-flight jobs are interrupted
//     through the same anytime path, their incumbents are journaled, and
//     Shutdown returns only when every worker has wound down.
//
// See DESIGN.md section 16 for the state machine and status taxonomy.
package serve

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"letdma/internal/ordered"
)

// Config parameterizes a Server.
type Config struct {
	// Workers is the number of jobs solved concurrently (default 2).
	Workers int
	// QueueCap bounds the number of admitted incomplete jobs — queued,
	// running, or waiting out a retry backoff (default 64). Submissions
	// past the cap get ErrQueueFull (HTTP 429 + Retry-After).
	QueueCap int
	// JournalPath is the append-only job journal (required).
	JournalPath string
	// DefaultDeadline is the per-job wall-clock budget when the spec
	// does not set one (default 60s).
	DefaultDeadline time.Duration
	// MaxRetries bounds retries per job for transient causes (default 2;
	// negative disables retries).
	MaxRetries int
	// RetryBackoff is the first retry delay, doubled per attempt
	// (default 100ms).
	RetryBackoff time.Duration
	// CertTimeLimit bounds the deterministic re-solve inside the
	// FastSearch optimality certificate (default 30s).
	CertTimeLimit time.Duration
	// Log, if non-nil, receives one line per job transition.
	Log io.Writer

	// testSolve, when non-nil, replaces the real solver — the test seam
	// that lets the queue/deadline/retry/journal machinery be driven
	// with controllable outcomes and latencies. The second return value
	// is the transient-fault cause ("" = not retryable).
	testSolve func(spec JobSpec, stopper *Stopper) (*JobResult, string)
}

func (c *Config) fill() error {
	if c.JournalPath == "" {
		return errors.New("serve: Config.JournalPath is required")
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 64
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 60 * time.Second
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 2
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 100 * time.Millisecond
	}
	if c.CertTimeLimit <= 0 {
		c.CertTimeLimit = 30 * time.Second
	}
	return nil
}

// Job is one admitted job. All mutable fields are guarded by Server.mu.
type Job struct {
	Key      string
	Spec     JobSpec
	State    State
	Result   *JobResult
	Attempts int
	// stopper is the running attempt's interrupt owner (nil otherwise).
	stopper *Stopper
	// done is closed when the job reaches a terminal state.
	done chan struct{}
}

// JobStatus is the externally visible snapshot of a job.
type JobStatus struct {
	Key      string     `json:"key"`
	State    State      `json:"state"`
	Attempts int        `json:"attempts"`
	Result   *JobResult `json:"result,omitempty"`
}

// Sentinel errors mapped to HTTP statuses by the handlers.
var (
	// ErrQueueFull: the admission queue is at QueueCap (429).
	ErrQueueFull = errors.New("serve: queue full")
	// ErrDraining: the server is shutting down (503).
	ErrDraining = errors.New("serve: draining, not accepting jobs")
	// errJournal: the journal could not record the submission (500).
	errJournal = errors.New("serve: journal unavailable")
)

// Server is the letdmad job service.
type Server struct {
	cfg     Config
	journal *Journal
	q       *queue

	mu      sync.Mutex
	jobs    map[string]*Job
	order   []string     // keys in admission order
	running map[int]*Job // worker id -> in-flight job
	// incomplete counts the jobs that hold an admission slot: admitted or
	// resumed, and not yet terminal. A job waiting out a retry backoff or
	// journaled as interrupted keeps its slot.
	incomplete int
	draining   bool

	wg sync.WaitGroup
}

// New opens (and recovers) the journal and builds the server: completed
// jobs from the journal populate the result cache; pending ones —
// including jobs a previous daemon crashed or drained mid-flight — are
// re-queued. Call Start to begin solving.
func New(cfg Config) (*Server, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	journal, replay, err := OpenJournal(cfg.JournalPath)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:     cfg,
		journal: journal,
		q:       newQueue(),
		jobs:    make(map[string]*Job),
		running: make(map[int]*Job),
	}
	if replay.Torn {
		s.logf("journal %s: dropped a torn trailing record", cfg.JournalPath)
	}
	for _, key := range replay.Order {
		rj := replay.Jobs[key]
		j := &Job{
			Key:      key,
			Spec:     rj.Spec,
			State:    rj.State,
			Result:   rj.Result,
			Attempts: rj.Attempts,
			done:     make(chan struct{}),
		}
		s.jobs[key] = j
		s.order = append(s.order, key)
		if j.State.Terminal() {
			close(j.done)
			continue
		}
		// Crashed or drained mid-flight: resume as queued. The journal
		// already holds the submit record, so nothing is re-appended.
		j.State = StateQueued
		s.incomplete++
		s.q.push(j)
		s.logf("job %s: resumed from journal (attempts so far: %d)", shortKey(key), j.Attempts)
	}
	return s, nil
}

// Start launches the worker pool.
func (s *Server) Start() {
	for w := 0; w < s.cfg.Workers; w++ {
		s.wg.Add(1)
		go s.worker(w)
	}
}

// Submit admits one job: the spec is canonicalized and content-hashed;
// a known key is deduplicated (terminal results come straight from the
// cache, incomplete jobs return their current state); a new key is
// journaled and queued. Returns ErrQueueFull / ErrDraining under
// backpressure, a validation error for malformed specs.
func (s *Server) Submit(spec JobSpec) (JobStatus, error) {
	norm, canon, err := normalizeSpec(spec)
	if err != nil {
		return JobStatus{}, err
	}
	return s.admit(norm, jobKey(canon, norm))
}

// admit is the locked admission step for an already-normalized spec.
func (s *Server) admit(norm JobSpec, key string) (JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return JobStatus{}, ErrDraining
	}
	if j, ok := s.jobs[key]; ok {
		return s.snapshotLocked(j), nil
	}
	if s.incomplete >= s.cfg.QueueCap {
		return JobStatus{}, ErrQueueFull
	}
	j := &Job{Key: key, Spec: norm, State: StateQueued, done: make(chan struct{})}
	if err := s.journal.Append(journalRecord{Rec: "submit", Key: key, Spec: &norm}); err != nil {
		return JobStatus{}, fmt.Errorf("%w: %v", errJournal, err)
	}
	s.jobs[key] = j
	s.order = append(s.order, key)
	s.incomplete++
	s.q.push(j)
	s.logf("job %s: admitted", shortKey(key))
	return s.snapshotLocked(j), nil
}

// Status returns the snapshot for one job key.
func (s *Server) Status(key string) (JobStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[key]
	if !ok {
		return JobStatus{}, false
	}
	return s.snapshotLocked(j), true
}

// List returns every job in admission order.
func (s *Server) List() []JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobStatus, 0, len(s.order))
	for _, key := range s.order {
		out = append(out, s.snapshotLocked(s.jobs[key]))
	}
	return out
}

// Ready reports whether the server accepts submissions.
func (s *Server) Ready() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.draining
}

func (s *Server) snapshotLocked(j *Job) JobStatus {
	return JobStatus{Key: j.Key, State: j.State, Attempts: j.Attempts, Result: j.Result}
}

// doneChan returns the job's completion channel (nil for unknown keys).
func (s *Server) doneChan(key string) <-chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.jobs[key]; ok {
		return j.done
	}
	return nil
}

// Shutdown drains the service: admission stops (Submit returns
// ErrDraining, /readyz flips to 503), queued-but-unstarted jobs stay
// journaled as pending for the next start, in-flight jobs are
// interrupted through the solver's anytime path and their incumbents
// journaled, and the call returns once every worker has wound down and
// the journal is flushed closed. Idempotent.
func (s *Server) Shutdown() error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.draining = true
	var stoppers []*Stopper
	for _, id := range ordered.Keys(s.running) {
		if st := s.running[id].stopper; st != nil {
			stoppers = append(stoppers, st)
		}
	}
	s.mu.Unlock()

	s.q.close()
	for _, st := range stoppers {
		st.Stop()
	}
	s.wg.Wait()
	s.logf("drained; journal closed")
	return s.journal.Close()
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Log == nil {
		return
	}
	fmt.Fprintf(s.cfg.Log, "letdmad: "+format+"\n", args...)
}
