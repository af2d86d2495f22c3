package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: letdma
cpu: Test CPU @ 2.00GHz
BenchmarkWarmStartBnB/warm-8         	       2	 512345678 ns/op	     12345 lp_iters	        37 warm_hits
BenchmarkWarmStartBnB/cold-8         	       1	 912345678 ns/op	     23456 lp_iters	         0 warm_hits
BenchmarkParallelBnB/workers1-8      	       1	1212345678 ns/op	       128 nodes
BenchmarkDoubleBuffer-8              	 1000000	      1042 ns/op	       0 B/op	       0 allocs/op
--- BENCH: BenchmarkMILPFullWaters-8
    bench_test.go:206: MILP status: optimal
PASS
ok  	letdma	42.000s
`

func TestParse(t *testing.T) {
	doc, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(doc.Benchmarks), 4; got != want {
		t.Fatalf("parsed %d benchmarks, want %d: %+v", got, want, doc.Benchmarks)
	}
	if doc.Context["goos"] != "linux" || doc.Context["cpu"] != "Test CPU @ 2.00GHz" {
		t.Fatalf("context not captured: %+v", doc.Context)
	}
	warm := doc.Benchmarks[0]
	if warm.Name != "BenchmarkWarmStartBnB/warm-8" || warm.Runs != 2 {
		t.Fatalf("first benchmark misparsed: %+v", warm)
	}
	if warm.Metrics["lp_iters"] != 12345 || warm.Metrics["warm_hits"] != 37 {
		t.Fatalf("custom metrics misparsed: %+v", warm.Metrics)
	}
	if doc.Benchmarks[3].Metrics["allocs/op"] != 0 {
		t.Fatalf("memory metrics misparsed: %+v", doc.Benchmarks[3].Metrics)
	}
}

func TestParseIgnoresNonResultLines(t *testing.T) {
	in := "BenchmarkAnnouncedOnly\nnot a benchmark\nBenchmarkBad 	 x ns/op\n"
	doc, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Benchmarks) != 0 {
		t.Fatalf("non-result lines parsed as benchmarks: %+v", doc.Benchmarks)
	}
}

func TestRunWritesFile(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bench.json")
	if err := run([]string{"-o", out}, strings.NewReader(sample), &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc Doc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if len(doc.Benchmarks) != 4 {
		t.Fatalf("round trip lost benchmarks: %+v", doc.Benchmarks)
	}
}

func TestRunRejectsExtraArgs(t *testing.T) {
	if err := run([]string{"a", "b"}, strings.NewReader(""), &bytes.Buffer{}); err == nil {
		t.Fatal("extra positional arguments accepted")
	}
}

func TestDiffAgainstCommitted(t *testing.T) {
	// Commit the sample as the snapshot, then diff a run whose timing
	// improved but whose deterministic lp_iters drifted.
	snapshot := filepath.Join(t.TempDir(), "BENCH_milp.json")
	if err := run([]string{"-o", snapshot}, strings.NewReader(sample), &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	fresh := strings.Replace(sample, "12345 lp_iters", "11111 lp_iters", 1)
	fresh = strings.Replace(fresh, " 512345678 ns/op", " 112345678 ns/op", 1)
	var out bytes.Buffer
	if err := run([]string{"-diff", snapshot}, strings.NewReader(fresh), &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "DRIFT") {
		t.Fatalf("deterministic lp_iters drift not marked:\n%s", text)
	}
	if !strings.Contains(text, "1 deterministic metric(s) drifted") {
		t.Fatalf("drift summary missing:\n%s", text)
	}
	// Timing deltas are reported but never marked as drift.
	if strings.Count(text, "DRIFT") != 1 {
		t.Fatalf("non-deterministic metrics marked as drift:\n%s", text)
	}

	// An identical run reports no drift.
	out.Reset()
	if err := run([]string{"-diff", snapshot}, strings.NewReader(sample), &out); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "DRIFT") {
		t.Fatalf("identical run reported drift:\n%s", out.String())
	}
}

// TestReplaysDrift: the margin search's replay count is deterministic, so
// a change in it is marked as drift while the timing and allocation
// columns of the same line are not.
func TestReplaysDrift(t *testing.T) {
	const robust = "BenchmarkRobustness-8 \t 3\t 330165817 ns/op\t 43.00 replays\t 250719136 B/op\t 216291 allocs/op\n"
	snapshot := filepath.Join(t.TempDir(), "BENCH_sim.json")
	if err := run([]string{"-o", snapshot}, strings.NewReader(robust), &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	fresh := strings.NewReplacer("43.00 replays", "67.00 replays", "330165817", "2067804314", "216291", "8047468").Replace(robust)
	var out bytes.Buffer
	if err := run([]string{"-diff", snapshot}, strings.NewReader(fresh), &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	var drifted []string
	for _, line := range strings.Split(text, "\n") {
		if strings.HasSuffix(line, "DRIFT") {
			drifted = append(drifted, line)
		}
	}
	if len(drifted) != 1 || !strings.Contains(drifted[0], " replays ") {
		t.Fatalf("want exactly the replays row marked as drift, got %q:\n%s", drifted, text)
	}
}

// TestDPStatesDrift: the states combopt's ordering DP expands over the
// sensitivity sweep are deterministic, so every committed
// BenchmarkSensitivity run in BENCH_sim.json reports the same count, and
// a change in it is marked as drift while the timing and allocation
// columns of the same line are not.
func TestDPStatesDrift(t *testing.T) {
	data, err := os.ReadFile("../../BENCH_sim.json")
	if err != nil {
		t.Fatal(err)
	}
	var committed Doc
	if err := json.Unmarshal(data, &committed); err != nil {
		t.Fatal(err)
	}
	var counts []float64
	for _, b := range committed.Benchmarks {
		if v, ok := b.Metrics["dp_states"]; ok && strings.HasPrefix(b.Name, "BenchmarkSensitivity") {
			counts = append(counts, v)
		}
	}
	if len(counts) == 0 || slices.Min(counts) != slices.Max(counts) {
		t.Fatalf("committed BenchmarkSensitivity dp_states = %v, want one count on every run", counts)
	}

	const sens = "BenchmarkSensitivity-2 \t 3\t 10024033 ns/op\t 7126 dp_states\t 4008792 B/op\t 10007 allocs/op\n"
	snapshot := filepath.Join(t.TempDir(), "BENCH_sim.json")
	if err := run([]string{"-o", snapshot}, strings.NewReader(sens), &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	fresh := strings.NewReplacer("7126 dp_states", "7127 dp_states", "10024033", "38000000", "10007", "12149").Replace(sens)
	var out bytes.Buffer
	if err := run([]string{"-diff", snapshot}, strings.NewReader(fresh), &out); err != nil {
		t.Fatal(err)
	}
	var drifted []string
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.HasSuffix(line, "DRIFT") {
			drifted = append(drifted, line)
		}
	}
	if len(drifted) != 1 || !strings.Contains(drifted[0], " dp_states ") {
		t.Fatalf("want exactly the dp_states row marked as drift, got %q:\n%s", drifted, out.String())
	}
}

// TestSolverValuesDrift: "transfers" (the proved OBJ-DMAT optimum, on both
// FastSearchBnB lanes), "warm_expands" (a DFS counter of WarmStartBnB) and
// its sparse-kernel activity ("eta_nnz", "ftran_avg_nnz") gate exactly.
// Every run in the committed BENCH_milp.json agrees on each deterministic
// metric, both lanes report the same optimum, and a change in any of these
// values is marked as drift while the timing of the same line is not.
func TestSolverValuesDrift(t *testing.T) {
	data, err := os.ReadFile("../../BENCH_milp.json")
	if err != nil {
		t.Fatal(err)
	}
	var committed Doc
	if err := json.Unmarshal(data, &committed); err != nil {
		t.Fatal(err)
	}
	first := map[string]float64{} // "name unit" -> value of the first run
	var optima []float64
	for _, b := range committed.Benchmarks {
		for unit, v := range b.Metrics {
			if !deterministicMetrics[unit] {
				continue
			}
			key := b.Name + " " + unit
			if prev, ok := first[key]; !ok {
				first[key] = v
				if unit == "transfers" {
					optima = append(optima, v)
				}
			} else if prev != v {
				t.Errorf("%s: committed runs disagree (%g vs %g)", key, prev, v)
			}
		}
	}
	if len(optima) != 2 || optima[0] != optima[1] {
		t.Fatalf("committed transfers per FastSearchBnB lane = %v, want one optimum on two lanes", optima)
	}

	const lines = "BenchmarkFastSearchBnB/fast-2 \t 1\t 670439313 ns/op\t 4.000 transfers\n" +
		"BenchmarkWarmStartBnB/warm-2 \t 1\t 538454572 ns/op\t 1257507 eta_nnz\t 223.9 ftran_avg_nnz\t 5687 lp_iters\t 38.00 warm_expands\t 15.00 warm_hits\n"
	snapshot := filepath.Join(t.TempDir(), "BENCH_milp.json")
	if err := run([]string{"-o", snapshot}, strings.NewReader(lines), &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	fresh := strings.NewReplacer("4.000 transfers", "5.000 transfers", "38.00 warm_expands", "39.00 warm_expands",
		"1257507 eta_nnz", "1257508 eta_nnz", "223.9 ftran_avg_nnz", "224.0 ftran_avg_nnz",
		"670439313", "370439313", "538454572", "938454572").Replace(lines)
	var out bytes.Buffer
	if err := run([]string{"-diff", snapshot}, strings.NewReader(fresh), &out); err != nil {
		t.Fatal(err)
	}
	var drifted []string
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.HasSuffix(line, "DRIFT") {
			drifted = append(drifted, strings.Fields(line)[1])
		}
	}
	if strings.Join(drifted, ",") != "transfers,eta_nnz,ftran_avg_nnz,warm_expands" {
		t.Fatalf("want exactly the transfers, eta_nnz, ftran_avg_nnz and warm_expands rows marked as drift, got %q:\n%s", drifted, out.String())
	}
}
