package experiments

import (
	"bytes"
	"encoding/csv"
	"strings"
	"testing"

	"letdma/internal/dma"
	"letdma/internal/waters"
)

func TestCampaignBasics(t *testing.T) {
	rows, err := Campaign(CampaignConfig{
		Systems: 20,
		Seed:    3,
		Alphas:  []float64{0.2, 0.6},
		RandomOpts: waters.RandomOptions{
			MaxLabelBytes: 16 << 10, // stress with up to 16 KiB labels
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Total == 0 {
			t.Fatalf("alpha=%.1f: no schedulable systems generated", r.Alpha)
		}
		// The proposed protocol dominates: anything a baseline accepts, it
		// accepts (per-task readiness is never later than after-all, and
		// grouping only reduces Property-3 pressure).
		if r.Proposed < r.DMAA {
			t.Errorf("alpha=%.1f: proposed %d < giotto-dma %d", r.Alpha, r.Proposed, r.DMAA)
		}
	}
	// Acceptance is monotone in alpha (looser deadlines accept more).
	if rows[1].Proposed*rows[0].Total < rows[0].Proposed*rows[1].Total {
		t.Errorf("acceptance not monotone in alpha: %+v", rows)
	}
}

func TestCampaignDeterministic(t *testing.T) {
	cfg := CampaignConfig{Systems: 10, Seed: 9, Alphas: []float64{0.4}}
	r1, err := Campaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Campaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1[0] != r2[0] {
		t.Errorf("non-deterministic campaign: %+v vs %+v", r1[0], r2[0])
	}
}

// TestCampaignGolden pins the exact acceptance counts of two seeded
// campaigns, uniform and automotive, through their CSV export. The rows
// depend on the per-alpha generator stream and on every verdict, so any
// change in how systems are drawn or evaluated shows up byte for byte.
func TestCampaignGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  CampaignConfig
	}{
		{"campaign_uniform_csv.golden", CampaignConfig{
			Systems: 12, Seed: 5, Alphas: []float64{0.1, 0.3, 0.7},
			RandomOpts: waters.RandomOptions{MaxLabelBytes: 256 << 10}, // large labels, so the approaches differ
		}},
		{"campaign_automotive_csv.golden", CampaignConfig{
			Systems: 8, Seed: 41, Alphas: []float64{0.3, 0.7}, Automotive: true,
			AutoOpts: waters.AutomotiveOptions{Tasks: 8, Labels: 8},
		}},
	} {
		rows, err := Campaign(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteCampaignCSV(&buf, rows); err != nil {
			t.Fatal(err)
		}
		checkGolden(t, tc.name, buf.Bytes())
	}
}

func TestRenderCampaign(t *testing.T) {
	rows := []CampaignRow{
		{Alpha: 0.2, Total: 10, Proposed: 9, DMAA: 5, CPU: 3},
		{Alpha: 0.4, Total: 0},
	}
	var buf bytes.Buffer
	if err := RenderCampaign(&buf, rows); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "90.0%") || !strings.Contains(out, "50.0%") {
		t.Errorf("percentages missing:\n%s", out)
	}
	if !strings.Contains(out, "-") {
		t.Error("empty row should render dashes")
	}
}

func TestCampaignAutomotive(t *testing.T) {
	rows, err := Campaign(CampaignConfig{
		Systems:    8,
		Seed:       41,
		Alphas:     []float64{0.5},
		Automotive: true,
		AutoOpts:   waters.AutomotiveOptions{Tasks: 8, Labels: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Total == 0 {
		t.Fatal("no schedulable automotive systems")
	}
	if rows[0].Proposed < rows[0].DMAA {
		t.Errorf("proposed %d < dma-a %d", rows[0].Proposed, rows[0].DMAA)
	}
}

func TestCSVExports(t *testing.T) {
	a := liteAnalysis(t)
	res, err := Fig2(a, Config{Alpha: 0.4, Objective: dma.MinDelayRatio})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteFig2CSV(&buf, res); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatalf("fig2 CSV unparsable: %v", err)
	}
	if len(recs) != 1+len(a.Sys.Tasks) {
		t.Errorf("fig2 CSV rows = %d", len(recs))
	}

	rows, err := TableI(a, []float64{0.3}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := WriteTableICSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if recs, err = csv.NewReader(&buf).ReadAll(); err != nil || len(recs) != 4 {
		t.Errorf("table1 CSV rows = %d err = %v", len(recs), err)
	}

	buf.Reset()
	if err := WriteCampaignCSV(&buf, []CampaignRow{{Alpha: 0.2, Total: 5, Proposed: 5}}); err != nil {
		t.Fatal(err)
	}
	if recs, err = csv.NewReader(&buf).ReadAll(); err != nil || len(recs) != 2 {
		t.Errorf("campaign CSV rows = %d err = %v", len(recs), err)
	}
}
