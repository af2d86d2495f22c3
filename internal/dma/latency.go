package dma

import (
	"letdma/internal/let"
	"letdma/internal/model"
	"letdma/internal/timeutil"
)

// ReadinessRule selects when a task released at a communication instant
// becomes ready for execution.
type ReadinessRule int

const (
	// PerTaskReadiness is rule R1/R3 of the proposed protocol: a task is
	// ready as soon as the transfer carrying the last of its own LET
	// communications completes.
	PerTaskReadiness ReadinessRule = iota
	// AfterAllReadiness is the Giotto sequence: every task released at t
	// becomes ready only after all LET communications at t complete.
	AfterAllReadiness
)

// Latency returns the data-acquisition latency lambda_i of task ti at
// instant t under the given readiness rule, using the accumulation
// semantics of Constraint 9: each issued transfer costs lambda_O plus
// omega_c times the bytes it moves, and transfers are strictly sequential.
//
// Under PerTaskReadiness the latency accumulates transfers up to and
// including the one carrying ti's last communication at t (zero if ti has
// none). Under AfterAllReadiness every task released at t waits for the
// whole induced schedule (zero if no communication is required at t).
func Latency(a *let.Analysis, cm CostModel, s *Schedule, t timeutil.Time, ti model.TaskID, rule ReadinessRule) timeutil.Time {
	switch rule {
	case AfterAllReadiness:
		return s.Duration(a, cm, t)
	case PerTaskReadiness:
		induced, _ := s.InducedAt(a, t)
		last, found := -1, false
		for g, tr := range induced {
			for _, z := range tr.Comms {
				if a.Comms[z].Task == ti {
					last, found = g, true
					break
				}
			}
		}
		if !found {
			return 0
		}
		var total timeutil.Time
		for g := 0; g <= last; g++ {
			total += cm.TransferCost(TransferSize(a, induced[g]))
		}
		return total
	default:
		panic("dma: unknown readiness rule")
	}
}

// WorstLatency returns max over the release instants of ti in [0, H) of
// Latency at that instant (release instants outside T* contribute zero).
// For any schedule, under either readiness rule and a valid cost model,
// the maximum is attained at s0 = 0, so WorstLatency is Latency at s0:
// the value Eq. (5) and MaxLatencyRatio evaluate.
//
// Proof. Every task is released at s0 and C(t) is a subset of C(s0), so
// the schedule induced at t is an order-preserving restriction of the
// one at s0: it keeps s0's transfers that carry an active communication,
// each moving a subset of its bytes. TransferCost is monotone in the
// bytes moved, so any prefix of the sequence at t costs no more than the
// prefix at s0 ending at the same transfer. Under AfterAllReadiness the
// latency is the whole sequence. Under PerTaskReadiness it is the prefix
// ending at the transfer carrying ti's last communication at t; that
// communication is also active at s0, so ti's last transfer at s0 lies
// at or after it.
func WorstLatency(a *let.Analysis, cm CostModel, s *Schedule, ti model.TaskID, rule ReadinessRule) timeutil.Time {
	return Latency(a, cm, s, 0, ti, rule)
}

// MaxLatencyRatio returns the objective value of Eq. (5): the maximum over
// tasks of lambda_i / T_i at s0 under the given rule.
func MaxLatencyRatio(a *let.Analysis, cm CostModel, s *Schedule, rule ReadinessRule) float64 {
	var worst float64
	for _, task := range a.Sys.Tasks {
		l := Latency(a, cm, s, 0, task.ID, rule)
		r := float64(l) / float64(task.Period)
		if r > worst {
			worst = r
		}
	}
	return worst
}
