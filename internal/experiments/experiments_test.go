package experiments

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"letdma/internal/dma"
	"letdma/internal/let"
	"letdma/internal/waters"
)

func liteAnalysis(t *testing.T) *let.Analysis {
	t.Helper()
	a, err := let.Analyze(waters.Lite())
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func fullAnalysis(t *testing.T) *let.Analysis {
	t.Helper()
	a, err := waters.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestFig2Lite(t *testing.T) {
	a := liteAnalysis(t)
	res, err := Fig2(a, Config{Alpha: 0.4, Objective: dma.MinDelayRatio})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(a.Sys.Tasks) {
		t.Fatalf("rows = %d, want %d", len(res.Rows), len(a.Sys.Tasks))
	}
	for _, row := range res.Rows {
		// The proposed protocol must never be worse than any baseline.
		if row.RatioCPU() > 1+1e-9 && row.CPU > 0 {
			// CPU copies of small payloads can beat DMA overheads; allow
			// but flag ratios wildly above 1.
			if row.RatioCPU() > 20 {
				t.Errorf("task %s: ratio vs CPU = %.2f", row.Task, row.RatioCPU())
			}
		}
		if row.DMAA > 0 && row.RatioDMAA() > 1+1e-9 {
			t.Errorf("task %s: proposed %v worse than Giotto-DMA-A %v", row.Task, row.Proposed, row.DMAA)
		}
		if row.DMAB > 0 && row.RatioDMAB() > 1+1e-9 {
			t.Errorf("task %s: proposed %v worse than Giotto-DMA-B %v", row.Task, row.Proposed, row.DMAB)
		}
	}
}

func TestFig2FullWaters(t *testing.T) {
	a := fullAnalysis(t)
	res, err := Fig2(a, Config{Alpha: 0.2, Objective: dma.MinDelayRatio})
	if err != nil {
		t.Fatal(err)
	}
	// The headline claim: short-period tasks see large improvements; the
	// best improvement across tasks and baselines reaches ~90%+.
	best := 1.0
	for _, row := range res.Rows {
		for _, r := range []float64{row.RatioCPU(), row.RatioDMAA(), row.RatioDMAB()} {
			if r > 0 && r < best {
				best = r
			}
		}
	}
	if best > 0.15 {
		t.Errorf("best improvement ratio %.3f, expected <= 0.15 (paper reports up to 98%%)", best)
	}
}

func TestSolveProposedMILPLite(t *testing.T) {
	a := liteAnalysis(t)
	solved, err := SolveProposed(a, Config{
		Alpha: 0.4, Objective: dma.MinTransfers,
		Solver: SolverMILP, MILPTimeLimit: 8 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if solved.MILPStatus == "" || solved.MILP == nil {
		t.Error("MILP status or result missing")
	}
	if err := dma.Validate(a, dma.DefaultCostModel(), solved.Layout, solved.Sched, solved.Gamma); err != nil {
		t.Fatal(err)
	}
}

// TestSolveProposedInfeasible: a combinatorial-stage failure wraps
// ErrInfeasible and keeps its rendered text; a comb-only solve carries no
// MILP result.
func TestSolveProposedInfeasible(t *testing.T) {
	a := liteAnalysis(t)
	_, err := SolveProposed(a, Config{Alpha: 0.01, Objective: dma.MinDelayRatio})
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("alpha=0.01: err = %v, want ErrInfeasible", err)
	}
	if !strings.HasPrefix(err.Error(), "experiments: alpha=0.01 infeasible: combopt: ") {
		t.Errorf("error text = %q", err)
	}
	solved, err := SolveProposed(a, Config{Alpha: 0.3, Objective: dma.MinDelayRatio})
	if err != nil {
		t.Fatal(err)
	}
	if solved.MILP != nil {
		t.Error("comb-only solve carries a MILP result")
	}
}

func TestTableILite(t *testing.T) {
	a := liteAnalysis(t)
	alphas := []float64{0.2, 0.4}
	rows, err := TableI(a, alphas, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(rows))
	}
	var buf bytes.Buffer
	if err := RenderTableI(&buf, rows, alphas); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"NO-OBJ", "OBJ-DMAT", "OBJ-DEL", "#DMA"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table I output missing %q:\n%s", want, out)
		}
	}
}

func TestSensitivityFullWaters(t *testing.T) {
	a := fullAnalysis(t)
	rows := Sensitivity(a, []float64{0.1, 0.2, 0.3, 0.4, 0.5}, Config{})
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Feasible {
		t.Error("alpha=0.1 should be infeasible (paper)")
	}
	for _, r := range rows[1:] {
		if !r.Feasible {
			t.Errorf("alpha=%.1f should be feasible: %s", r.Alpha, r.Reason)
		}
	}
	var buf bytes.Buffer
	if err := RenderSensitivity(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "alpha") {
		t.Error("render output malformed")
	}
}

func TestRenderFig2(t *testing.T) {
	a := liteAnalysis(t)
	res, err := Fig2(a, Config{Alpha: 0.3, Objective: dma.NoObjective})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := RenderFig2(&buf, res); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Fig.2 panel", "NO-OBJ", "DASM", "r(CPU)"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig2 output missing %q:\n%s", want, out)
		}
	}
}

func TestRatioEdgeCases(t *testing.T) {
	r := Fig2Row{Proposed: 0, CPU: 0}
	if r.RatioCPU() != 1 {
		t.Errorf("0/0 ratio = %f, want 1 (equal latencies)", r.RatioCPU())
	}
	r2 := Fig2Row{Proposed: 10, CPU: 0}
	if !math.IsNaN(r2.RatioCPU()) {
		t.Errorf("x/0 ratio = %f, want the NaN undefined-ratio sentinel", r2.RatioCPU())
	}
	r3 := Fig2Row{Proposed: 10, CPU: 20}
	if r3.RatioCPU() != 0.5 {
		t.Errorf("10/20 ratio = %f, want 0.5", r3.RatioCPU())
	}
}

// TestZeroBaselineRenders is the regression for the zero-latency baseline
// cell: a write-only task (empty read set) has latency 0 under a baseline,
// and both the text table and the CSV export must render its ratio as
// "n/a" instead of +Inf/NaN.
func TestZeroBaselineRenders(t *testing.T) {
	res := &Fig2Result{
		Alpha:     0.2,
		Objective: dma.NoObjective,
		Solved:    &Solved{NumTransfers: 1},
		Rows: []Fig2Row{
			{Task: "tauW", Proposed: 1000, CPU: 0, DMAA: 0, DMAB: 2000},
			{Task: "tauR", Proposed: 1000, CPU: 2000, DMAA: 2000, DMAB: 2000},
		},
	}
	var buf bytes.Buffer
	if err := RenderFig2(&buf, res); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "n/a") {
		t.Errorf("zero-baseline row not rendered as n/a:\n%s", out)
	}
	if strings.Contains(out, "NaN") || strings.Contains(out, "Inf") {
		t.Errorf("undefined ratio leaked into the table:\n%s", out)
	}

	buf.Reset()
	if err := WriteFig2CSV(&buf, res); err != nil {
		t.Fatal(err)
	}
	csvOut := buf.String()
	if !strings.Contains(csvOut, "n/a") {
		t.Errorf("zero-baseline row not exported as n/a:\n%s", csvOut)
	}
	if strings.Contains(csvOut, "NaN") {
		t.Errorf("NaN leaked into the CSV export:\n%s", csvOut)
	}
}
