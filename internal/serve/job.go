package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"time"

	"letdma/internal/dma"
	"letdma/internal/experiments"
	"letdma/internal/model"
	"letdma/internal/waters"
)

// JobSpec describes one solve job: the system under study plus the solver
// configuration. Exactly one of System, Lite or Waters selects the
// system; the remaining knobs mirror the letdma CLI flags of the same
// names. The zero values of Alpha/Objective/Solver mean the CLI defaults
// (0.2 / del / comb).
type JobSpec struct {
	// System is a model JSON description (the `letdma export` format).
	System json.RawMessage `json:"system,omitempty"`
	// Lite selects the built-in reduced two-core case study.
	Lite bool `json:"lite,omitempty"`
	// Waters selects the built-in full WATERS 2019 case study.
	Waters bool `json:"waters,omitempty"`

	// Alpha is the sensitivity factor; nil means the default 0.2, an
	// explicit 0 disables the data-acquisition deadlines.
	Alpha *float64 `json:"alpha,omitempty"`
	// Objective: "" or "none" | "dmat" | "del" (default "del").
	Objective string `json:"objective,omitempty"`
	// Solver: "" or "comb" | "milp" (default "comb").
	Solver string `json:"solver,omitempty"`
	// Slots caps the MILP transfer slots (0 = |C(s0)|).
	Slots int `json:"slots,omitempty"`
	// Fast selects the work-stealing FastSearch MILP engine. FastSearch
	// results are certified server-side by verify.CheckOptimal before
	// they are cached; a failed certificate is a retryable fault.
	Fast bool `json:"fast,omitempty"`
	// Workers is the FastSearch worker count, read only with Fast; the
	// combinatorial solver and the depth-first MILP ignore it. It does NOT
	// enter the job key: FastSearch returns the same certified optimum
	// for every count.
	Workers int `json:"workers,omitempty"`
	// MILPTimeLimit bounds each MILP solve (0 = the 60s default).
	MILPTimeLimit time.Duration `json:"milp_time_limit_ns,omitempty"`
	// Deadline is the per-job wall-clock budget; when it expires the job
	// is interrupted at the next solver boundary and completes with
	// state "deadline" and its anytime incumbent. 0 means the server
	// default.
	Deadline time.Duration `json:"deadline_ns,omitempty"`
}

// State is the lifecycle state of a job.
type State string

const (
	// StateQueued: admitted, waiting for a worker (also the state a
	// restarted daemon resumes crashed-mid-flight jobs into).
	StateQueued State = "queued"
	// StateRunning: a worker is solving the job.
	StateRunning State = "running"
	// StateDone: the solve completed normally; Result carries the milp
	// status detail (optimal/feasible) when the MILP ran.
	StateDone State = "done"
	// StateDeadline: the per-job deadline expired; Result carries the
	// anytime incumbent — a deadline is a completed job with a weaker
	// certificate, never a hard error when an incumbent exists.
	StateDeadline State = "deadline"
	// StateInfeasible: the instance is proven infeasible (a decided,
	// cacheable outcome).
	StateInfeasible State = "infeasible"
	// StateFailed: a deterministic failure (bad system, solver error,
	// panic, or retries exhausted); resubmitting the same spec returns
	// the cached failure.
	StateFailed State = "failed"
	// StateInterrupted: the daemon drained while the job was in flight.
	// The incumbent is journaled so nothing is lost, but the state is
	// not terminal: a restarted daemon re-queues the job.
	StateInterrupted State = "interrupted"
)

// Terminal reports whether the state is final: terminal jobs are served
// from the content-addressed cache and never re-run.
func (s State) Terminal() bool {
	switch s {
	case StateDone, StateDeadline, StateInfeasible, StateFailed:
		return true
	}
	return false
}

// JobResult is the recorded outcome of a job attempt. Wall-clock data
// stays in time.Duration fields (encoded as integer nanoseconds).
type JobResult struct {
	State      State  `json:"state"`
	MILPStatus string `json:"milp_status,omitempty"`
	// StopCause refines an early MILP stop (interrupt/numerical/limit).
	StopCause string  `json:"stop_cause,omitempty"`
	Objective float64 `json:"objective"`
	// NumTransfers is the number of DMA transfers at s0 (0 when no
	// incumbent exists).
	NumTransfers int           `json:"num_transfers"`
	SolveTime    time.Duration `json:"solve_ns"`
	// Attempts counts solve attempts including retries.
	Attempts int `json:"attempts"`
	// Certified marks a FastSearch result that passed the
	// verify.CheckOptimal certificate.
	Certified bool   `json:"certified,omitempty"`
	Error     string `json:"error,omitempty"`
	// Schedule lists the transfers of the incumbent, one line per
	// transfer, each the ordered communications it batches.
	Schedule []string `json:"schedule,omitempty"`
}

// HasIncumbent reports whether the result carries a decoded solution.
func (r *JobResult) HasIncumbent() bool {
	return r != nil && len(r.Schedule) > 0
}

// normalizeSpec validates spec, expands the built-in system selectors
// into canonical system bytes, and returns the normalized spec (System
// always set) plus the canonical bytes the job key is hashed over.
func normalizeSpec(spec JobSpec) (JobSpec, []byte, error) {
	selected := 0
	for _, on := range []bool{len(spec.System) > 0, spec.Lite, spec.Waters} {
		if on {
			selected++
		}
	}
	if selected != 1 {
		return spec, nil, fmt.Errorf("serve: spec must select exactly one of system, lite, waters")
	}
	if _, err := specObjective(spec.Objective); err != nil {
		return spec, nil, err
	}
	switch spec.Solver {
	case "", "comb", "milp":
	default:
		return spec, nil, fmt.Errorf("serve: unknown solver %q", spec.Solver)
	}
	if spec.MILPTimeLimit < 0 || spec.Deadline < 0 {
		return spec, nil, fmt.Errorf("serve: negative time budget")
	}
	if alpha := spec.Alpha; alpha != nil && (*alpha < 0 || *alpha >= 1) {
		return spec, nil, fmt.Errorf("serve: alpha %g outside [0, 1)", *alpha)
	}

	var sys *model.System
	switch {
	case spec.Lite:
		sys = waters.Lite()
	case spec.Waters:
		sys = waters.System()
	default:
		parsed, err := model.FromJSON(bytes.NewReader(spec.System))
		if err != nil {
			return spec, nil, err
		}
		sys = parsed
	}
	// Round-trip through ToJSON: the writer emits tasks and labels in
	// declaration order and sorts map keys, so semantically identical
	// submissions (whitespace, field order, defaulted priorities) hash
	// to the same canonical bytes — the content address of the job.
	var canon bytes.Buffer
	if err := sys.ToJSON(&canon); err != nil {
		return spec, nil, err
	}
	spec.System = canon.Bytes()
	spec.Lite, spec.Waters = false, false
	return spec, canon.Bytes(), nil
}

// jobKey derives the content address of a normalized spec: the canonical
// system bytes plus every solver-relevant knob, in fixed order. Workers
// is deliberately excluded (worker-count invariance is a solver
// contract); the two time budgets are included because they can change
// the recorded outcome (a deadline result is the anytime incumbent).
func jobKey(canonical []byte, spec JobSpec) string {
	h := sha256.New()
	h.Write(canonical)
	alpha := defaultAlpha
	if spec.Alpha != nil {
		alpha = *spec.Alpha
	}
	fmt.Fprintf(h, "\x00alpha=%s\x00obj=%s\x00solver=%s\x00slots=%d\x00fast=%t\x00milptl=%d\x00deadline=%d",
		strconv.FormatFloat(alpha, 'g', -1, 64),
		canonicalObjective(spec.Objective), canonicalSolver(spec.Solver),
		spec.Slots, spec.Fast, int64(spec.MILPTimeLimit), int64(spec.Deadline))
	return hex.EncodeToString(h.Sum(nil))
}

// defaultAlpha mirrors the letdma CLI's -alpha default.
const defaultAlpha = 0.2

func canonicalObjective(s string) string {
	switch s {
	case "", "del":
		return "del"
	case "none", "noobj":
		return "none"
	default:
		return s
	}
}

func canonicalSolver(s string) string {
	if s == "" {
		return "comb"
	}
	return s
}

// specObjective maps the spec's objective name to the dma constant; the
// empty name is the CLI default, OBJ-DEL.
func specObjective(s string) (dma.Objective, error) {
	if s == "" {
		return dma.MinDelayRatio, nil
	}
	return dma.ParseObjective(s)
}

// specConfig builds the experiments configuration for a normalized spec.
func specConfig(spec JobSpec, interrupt <-chan struct{}) (experiments.Config, error) {
	obj, err := specObjective(spec.Objective)
	if err != nil {
		return experiments.Config{}, err
	}
	solver := experiments.SolverComb
	if canonicalSolver(spec.Solver) == "milp" {
		solver = experiments.SolverMILP
	}
	alpha := defaultAlpha
	if spec.Alpha != nil {
		alpha = *spec.Alpha
	}
	return experiments.Config{
		Alpha:         alpha,
		Objective:     obj,
		Solver:        solver,
		MILPTimeLimit: spec.MILPTimeLimit,
		Slots:         spec.Slots,
		Workers:       spec.Workers,
		FastSearch:    spec.Fast,
		Interrupt:     interrupt,
	}, nil
}
