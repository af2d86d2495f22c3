package dma

import "fmt"

// Objective selects the optimization goal of Section VI.
type Objective int

const (
	// NoObjective solves the pure feasibility problem (NO-OBJ).
	NoObjective Objective = iota
	// MinTransfers minimizes max_i RGI_i, Eq. (4) (OBJ-DMAT): the index of
	// the latest transfer any task waits for, which with gap-free schedules
	// tracks the number of DMA transfers.
	MinTransfers
	// MinDelayRatio minimizes max_i lambda_i / T_i, Eq. (5) (OBJ-DEL).
	MinDelayRatio
)

// String names the objective with the paper's labels.
func (o Objective) String() string {
	switch o {
	case NoObjective:
		return "NO-OBJ"
	case MinTransfers:
		return "OBJ-DMAT"
	default:
		return "OBJ-DEL"
	}
}

// ParseObjective maps a command-line objective name to its Objective:
// "none" or "noobj" (NO-OBJ), "dmat" (OBJ-DMAT) and "del" (OBJ-DEL).
func ParseObjective(name string) (Objective, error) {
	switch name {
	case "none", "noobj":
		return NoObjective, nil
	case "dmat":
		return MinTransfers, nil
	case "del":
		return MinDelayRatio, nil
	}
	return 0, fmt.Errorf("dma: unknown objective %q", name)
}
