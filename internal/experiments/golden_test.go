package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"letdma/internal/dma"
)

// update rewrites the golden files instead of comparing against them:
//
//	go test ./internal/experiments -run Golden -update
var update = flag.Bool("update", false, "rewrite the testdata/ golden files")

// checkGolden byte-compares got against testdata/<name> (or rewrites the
// file under -update). Byte equality is the point: no change may reorder
// or reformat a single cell of the rendered tables.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create the golden file)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s does not match the golden file:\n--- got ---\n%s\n--- want ---\n%s",
			name, got, want)
	}
}

// normalizeFig2 pins the wall-clock-dependent field so the rendering is
// byte-stable. Everything else in the panel is deterministic.
func normalizeFig2(r *Fig2Result) *Fig2Result {
	r.Solved.SolveTime = 42 * time.Millisecond
	return r
}

func TestRenderFig2Golden(t *testing.T) {
	a := liteAnalysis(t)
	for _, tc := range []struct {
		name string
		obj  dma.Objective
	}{
		{"fig2_lite_del.golden", dma.MinDelayRatio},
		{"fig2_lite_dmat.golden", dma.MinTransfers},
	} {
		res, err := Fig2(a, Config{Alpha: 0.3, Objective: tc.obj})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := RenderFig2(&buf, normalizeFig2(res)); err != nil {
			t.Fatal(err)
		}
		checkGolden(t, tc.name, buf.Bytes())
	}
}

func TestRenderTableIGolden(t *testing.T) {
	a := liteAnalysis(t)
	alphas := []float64{0.2, 0.4}
	rows, err := TableI(a, alphas, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range rows {
		rows[i].SolveTime = time.Duration(i+1) * time.Millisecond // wall-clock normalized
	}
	var buf bytes.Buffer
	if err := RenderTableI(&buf, rows, alphas); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "tablei_lite.golden", buf.Bytes())
}

// TestFig2WatersGolden pins the full-WATERS artifacts of Section VII with
// the combinatorial solver: the six Fig. 2 panels as one CSV table (the
// same bytes as `letdma fig2 -all -csv`, which CI diffs against the same
// file), the Table I transfer counts (solve times normalized), and the
// alpha sweep 0.1-0.5. Every latency, ratio, transfer count and max
// lambda/T is pinned, so any change to schedule evaluation or to the
// transfer order the solver picks shows up as a byte difference.
func TestFig2WatersGolden(t *testing.T) {
	a := fullAnalysis(t)
	var panels []*Fig2Result
	for _, obj := range []dma.Objective{dma.NoObjective, dma.MinTransfers, dma.MinDelayRatio} {
		for _, alpha := range []float64{0.2, 0.4} {
			res, err := Fig2(a, Config{Alpha: alpha, Objective: obj})
			if err != nil {
				t.Fatal(err)
			}
			panels = append(panels, res)
		}
	}
	var buf bytes.Buffer
	if err := WriteFig2CSV(&buf, panels...); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig2_waters_csv.golden", buf.Bytes())

	alphas := []float64{0.2, 0.4}
	rows, err := TableI(a, alphas, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range rows {
		rows[i].SolveTime = time.Duration(i+1) * time.Millisecond // wall-clock normalized
	}
	buf.Reset()
	if err := RenderTableI(&buf, rows, alphas); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "tablei_waters.golden", buf.Bytes())

	buf.Reset()
	if err := RenderSensitivity(&buf, Sensitivity(a, []float64{0.1, 0.2, 0.3, 0.4, 0.5}, Config{})); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "sensitivity_waters.golden", buf.Bytes())
}
