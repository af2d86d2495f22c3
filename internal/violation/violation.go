// Package violation defines the structured feasibility-violation reports
// shared by the solution validators (internal/dma, internal/multidma) and
// the independent paper-invariant oracle (internal/verify).
//
// A validator that finds problems returns a List naming every violated
// paper condition instead of stopping at the first: fuzzing and mutation
// tests can then assert that a deliberately broken solution is rejected
// for the *right* reason, and a verification report can show the user the
// complete damage, not just the first symptom. Err() converts a List back
// into a plain error for callers that only care about pass/fail.
package violation

import (
	"fmt"
	"strings"
)

// Code is a stable machine-readable violation kind. Codes identify the
// check that fired; Violation.Constraint names the paper condition it
// enforces.
type Code string

// The violation kinds, one per family of checks. The mapping to the
// paper's numbered conditions is documented in DESIGN.md §10.
const (
	// Partition: the schedule is not an ordered partition of C(s0)
	// (Constraint 1): a communication is missing, duplicated or unknown.
	Partition Code = "partition"
	// MixedClass: a transfer merges communications with different
	// source/destination memory pairs (definition of a DMA transfer).
	MixedClass Code = "mixed-class"
	// EmptyTransfer: a transfer at s0 carries no communication.
	EmptyTransfer Code = "empty-transfer"
	// Placement: a required object is absent from its memory.
	Placement Code = "placement"
	// Capacity: the objects of a memory exceed its declared capacity.
	Capacity Code = "capacity"
	// Contiguity: an induced transfer's labels are not contiguous and
	// identically ordered in both memories (Constraint 6 / Theorem 1).
	Contiguity Code = "contiguity"
	// Property1: some task's LET write is not scheduled strictly before
	// one of its LET reads (Property 1 / Constraint 7).
	Property1 Code = "property-1"
	// Property2: some label's write is not scheduled strictly before one
	// of its reads (Property 2 / Constraint 8).
	Property2 Code = "property-2"
	// Deadline: a task's data-acquisition latency exceeds gamma_i
	// (Constraint 9).
	Deadline Code = "deadline"
	// Property3: a communication sequence spills past the next
	// communication instant (Property 3 / Constraint 10).
	Property3 Code = "property-3"
	// CostModel: the timing parameters are malformed.
	CostModel Code = "cost-model"
	// Activation: an activation-instant set disagrees with the skip
	// rules of Eqs. (1)-(2) recomputed from first principles.
	Activation Code = "activation"
	// Subset: C(t) is not a subset of C(s0) for some t in T*, breaking
	// the premise of Theorem 1.
	Subset Code = "subset"
	// Hyperperiod: an activation pattern does not repeat with the
	// per-task communication hyperperiod H*_i of Eq. (3).
	Hyperperiod Code = "hyperperiod"
	// Latency: a solver-reported latency or objective disagrees with the
	// oracle's recomputation (RGI / lambda_i of Eqs. (4)-(5)).
	Latency Code = "latency"
	// Objective: two exact solvers disagree on the optimal objective, or
	// a heuristic beats a proven optimum (differential harness).
	Objective Code = "objective"
	// Simulation: the discrete-event simulator measured a latency that
	// differs from the analytic prediction.
	Simulation Code = "simulation"
	// Channel: a multi-channel DMA assignment is malformed or deadlocks.
	Channel Code = "channel"
	// Overrun: under fault injection a transfer sequence ran (or, under
	// the abort-transfer policy, would have run) past the end of its
	// communication window at runtime (Property 3 broken by the injected
	// scenario, not by the schedule).
	Overrun Code = "overrun"
	// RetryExhausted: a DMA transfer failed permanently at runtime — a
	// hard drop, or transient errors past the retry/backoff budget.
	RetryExhausted Code = "retry-exhausted"
	// StaleRead: a failed or aborted transfer left a label holding its
	// previous-cycle value, so a consumer released at that instant reads
	// stale-but-consistent data (the skip-rule degradation of the
	// abort-transfer policy).
	StaleRead Code = "stale-read"
)

// Violation is one violated feasibility condition.
type Violation struct {
	// Code is the machine-readable kind, for filtering in tests.
	Code Code
	// Constraint names the paper condition, e.g. "Constraint 6",
	// "Property 2", "Eq. (3)", "Theorem 1".
	Constraint string
	// Detail is the human-readable specifics (which transfer, label,
	// instant, by how much).
	Detail string
}

// String renders "[code] Constraint N: detail".
func (v Violation) String() string {
	return fmt.Sprintf("[%s] %s: %s", v.Code, v.Constraint, v.Detail)
}

// List is an ordered collection of violations. A nil or empty List means
// the checked solution is feasible.
type List []Violation

// Addf appends a violation with a formatted detail message.
func (l *List) Addf(code Code, constraint, format string, args ...any) {
	*l = append(*l, Violation{Code: code, Constraint: constraint, Detail: fmt.Sprintf(format, args...)})
}

// Merge appends all violations of other, prefixing their details.
func (l *List) Merge(prefix string, other List) {
	for _, v := range other {
		if prefix != "" {
			v.Detail = prefix + ": " + v.Detail
		}
		*l = append(*l, v)
	}
}

// Has reports whether the list contains a violation with the given code.
func (l List) Has(code Code) bool {
	for _, v := range l {
		if v.Code == code {
			return true
		}
	}
	return false
}

// Filter returns the violations with the given code.
func (l List) Filter(code Code) List {
	var out List
	for _, v := range l {
		if v.Code == code {
			out = append(out, v)
		}
	}
	return out
}

// String renders the list one violation per line.
func (l List) String() string {
	var b strings.Builder
	for i, v := range l {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(v.String())
	}
	return b.String()
}

// Error wraps a non-empty List as an error. Callers can recover the
// structured list with errors.As.
type Error struct {
	Violations List
}

// Error summarizes the first violation and the total count, so wrapped
// messages stay greppable for the paper condition that fired first.
func (e *Error) Error() string {
	if len(e.Violations) == 0 {
		return "violation: empty violation list"
	}
	first := e.Violations[0]
	if len(e.Violations) == 1 {
		return fmt.Sprintf("%s: %s", first.Constraint, first.Detail)
	}
	return fmt.Sprintf("%s: %s (and %d more violations)", first.Constraint, first.Detail, len(e.Violations)-1)
}

// Err returns nil for an empty list and an *Error otherwise.
func (l List) Err() error {
	if len(l) == 0 {
		return nil
	}
	return &Error{Violations: l}
}
