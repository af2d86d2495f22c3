package main

import (
	"encoding/csv"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"letdma/internal/serve"
	"letdma/internal/sysgen"
)

// runSilenced invokes run() with stdout/stderr pointed at the null
// device, so exit-code assertions do not spam the test log.
func runSilenced(t *testing.T, args ...string) int {
	t.Helper()
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	oldOut, oldErr := os.Stdout, os.Stderr
	os.Stdout, os.Stderr = devnull, devnull
	defer func() { os.Stdout, os.Stderr = oldOut, oldErr }()
	return run(args)
}

// TestExitCodes pins the process exit code of every subcommand: 0 on
// success, 1 on command errors, 2 on usage errors.
func TestExitCodes(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"no-args", nil, 2},
		{"unknown-command", []string{"bogus"}, 2},
		{"help", []string{"help"}, 0},
		{"fig2", []string{"fig2", "-lite"}, 0},
		{"fig2-all", []string{"fig2", "-lite", "-all"}, 0},
		{"table1", []string{"table1", "-lite"}, 0},
		{"sensitivity", []string{"sensitivity", "-lite"}, 0},
		{"schedule", []string{"schedule", "-lite"}, 0},
		{"simulate", []string{"simulate", "-lite"}, 0},
		{"channels", []string{"channels", "-lite", "-maxk", "2"}, 0},
		{"rta", []string{"rta", "-lite"}, 0},
		{"campaign", []string{"campaign", "-systems", "3"}, 0},
		{"lp", []string{"lp", "-lite"}, 0},
		{"export", []string{"export", "-lite"}, 0},
		{"verify", []string{"verify", "-seed", "1", "-n", "6", "-q"}, 0},
		{"verify-fast", []string{"verify", "-seed", "1", "-n", "7", "-q", "-fast", "-workers", "4"}, 0},
		{"verify-deep-ties", []string{"verify", "-seed", "2", "-n", "3", "-q", "-family", "deep-ties", "-fast"}, 0},
		{"fuzz", []string{"fuzz", "-seed", "3", "-n", "6", "-q"}, 0},
		{"fuzz-fast", []string{"fuzz", "-seed", "3", "-n", "7", "-q", "-fast"}, 0},
		{"schedule-fast", []string{"schedule", "-lite", "-solver", "milp", "-fast", "-workers", "2"}, 0},
		{"robust", []string{"robust", "-lite", "-seed", "7", "-trials", "2", "-faultrate", "0.01"}, 0},
		{"robust-csv", []string{"robust", "-lite", "-seed", "7", "-trials", "2", "-faultrate", "0.1", "-csv", "-policy", "waitall"}, 0},
		{"robust-bad-policy", []string{"robust", "-lite", "-policy", "bogus"}, 1},
		{"robust-bad-rate", []string{"robust", "-lite", "-faultrate", "1.5"}, 1},
		{"verify-unknown-family", []string{"verify", "-family", "bogus"}, 1},
		{"verify-nonpositive-n", []string{"verify", "-n", "0"}, 1},
		{"missing-system-file", []string{"export", "-f", "/nonexistent/system.json"}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := runSilenced(t, tc.args...); got != tc.want {
				t.Errorf("letdma %v: exit code %d, want %d", tc.args, got, tc.want)
			}
		})
	}
}

// TestVerifyPropagatesWriteErrors: a failed stdout write (full disk,
// closed pipe) must surface as exit code 1, not a silent success.
func TestVerifyPropagatesWriteErrors(t *testing.T) {
	full, err := os.OpenFile("/dev/full", os.O_WRONLY, 0)
	if err != nil {
		t.Skipf("no /dev/full on this platform: %v", err)
	}
	defer full.Close()
	oldOut := os.Stdout
	os.Stdout = full
	defer func() { os.Stdout = oldOut }()
	if got := run([]string{"verify", "-seed", "1", "-n", "1", "-family", "harmonic"}); got != 1 {
		t.Errorf("verify with full stdout: exit code %d, want 1", got)
	}
}

// runInterrupted invokes runWith with an already-closed stop channel —
// the state after SIGINT arrived before (or during) the solve — with
// output silenced.
func runInterrupted(t *testing.T, args ...string) int {
	t.Helper()
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	oldOut, oldErr := os.Stdout, os.Stderr
	os.Stdout, os.Stderr = devnull, devnull
	defer func() { os.Stdout, os.Stderr = oldOut, oldErr }()
	stopper := serve.NewStopper()
	stopper.Stop()
	return runWith(args, stopper)
}

// TestInterruptExitCode: an interrupted MILP solve still reports the
// incumbent anytime solution and exits with the distinct code 3. A
// command that errors keeps exit code 1 even when interrupted.
func TestInterruptExitCode(t *testing.T) {
	if got := runInterrupted(t, "table1", "-lite", "-solver", "milp"); got != 3 {
		t.Errorf("interrupted table1: exit code %d, want 3", got)
	}
	if got := runInterrupted(t, "export", "-f", "/nonexistent/system.json"); got != 1 {
		t.Errorf("interrupted failing command: exit code %d, want 1", got)
	}
}

// TestTimeoutBudgetExpiry: a -timeout too small for the MILP stops the
// solve at its first boundary through the same stopper the daemon uses
// for per-job deadlines — the run prints the incumbent, flags the expiry
// on stderr, and exits 3 like a signal interrupt. A generous budget must
// not trip: the lite comb solve finishes well inside it and exits 0.
func TestTimeoutBudgetExpiry(t *testing.T) {
	code, stderr := captureStderr(t, func() int {
		return runWith([]string{"schedule", "-lite", "-solver", "milp", "-timeout", "1ns"}, serve.NewStopper())
	})
	if code != 3 {
		t.Fatalf("expired -timeout: exit code %d, want 3 (stderr: %s)", code, stderr)
	}
	if !strings.Contains(stderr, "-timeout budget expired") {
		t.Errorf("stderr lacks the expiry notice; got:\n%s", stderr)
	}

	if got := runSilenced(t, "schedule", "-lite", "-timeout", "1m"); got != 0 {
		t.Errorf("comfortable -timeout: exit code %d, want 0", got)
	}
}

// runInterruptedCapture is runInterrupted with stdout captured instead of
// discarded, so tests can assert WHAT an interrupted run printed, not
// just how it exited.
func runInterruptedCapture(t *testing.T, args ...string) (int, string) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	oldOut, oldErr := os.Stdout, os.Stderr
	os.Stdout, os.Stderr = w, devnull
	outc := make(chan string)
	go func() {
		buf, _ := io.ReadAll(r)
		outc <- string(buf)
	}()
	stopper := serve.NewStopper()
	stopper.Stop()
	code := runWith(args, stopper)
	w.Close()
	os.Stdout, os.Stderr = oldOut, oldErr
	return code, <-outc
}

// TestInterruptFlushesIncumbent: the exit-code-3 path is only useful if
// the anytime solution actually reached stdout before the process died.
// For the depth-first engine AND FastSearch, an interrupted schedule
// solve must still print the full layout + transfer-schedule report of
// the incumbent (here the combopt warm start, which seeds both engines).
func TestInterruptFlushesIncumbent(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"sequential", []string{"schedule", "-lite", "-solver", "milp", "-workers", "0"}},
		{"fast", []string{"schedule", "-lite", "-solver", "milp", "-fast", "-workers", "1"}},
		{"fast-parallel", []string{"schedule", "-lite", "-solver", "milp", "-fast", "-workers", "4"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, out := runInterruptedCapture(t, tc.args...)
			if code != 3 {
				t.Fatalf("exit code %d, want 3", code)
			}
			for _, want := range []string{"Memory layout", "DMA transfer schedule at s0", "Worst-case data-acquisition latencies"} {
				if !strings.Contains(out, want) {
					t.Errorf("interrupted output lacks %q; got:\n%s", want, out)
				}
			}
		})
	}
}

// TestMilpLogKernelLine: -milplog ends with the kernel counter lines, and
// the "kernel:" line reports how many nodes the depth-first engine
// warm-expanded from their parent basis. The instance is a small generated
// system, so the engine proves it optimal in well under a second.
func TestMilpLogKernelLine(t *testing.T) {
	sc, err := sysgen.Generate(11, sysgen.Harmonic)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "system.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.Sys.ToJSON(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	expands := regexp.MustCompile(`(?m)^kernel: warm_attempts=\d+ warm_hits=\d+ warm_expands=(\d+) cold_solves=\d+ `)
	code, stderr := captureStderr(t, func() int {
		return run([]string{"schedule", "-f", path, "-solver", "milp", "-obj", "dmat", "-milplog"})
	})
	if code != 0 {
		t.Fatalf("exit code %d, want 0 (stderr: %s)", code, stderr)
	}
	m := expands.FindStringSubmatch(stderr)
	if m == nil {
		t.Fatalf("no kernel line with warm_expands; stderr:\n%s", stderr)
	}
	if n, _ := strconv.Atoi(m[1]); n == 0 {
		t.Error("warm_expands=0, the search never warm-expanded a node")
	}
	if !strings.Contains(stderr, "kernel/lu: ftran=") {
		t.Error("stderr lacks the kernel/lu line")
	}
}

// captureStderr runs f with stdout discarded and stderr captured, and
// returns f's exit code with everything it wrote to stderr.
func captureStderr(t *testing.T, f func() int) (int, string) {
	t.Helper()
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	oldOut, oldErr := os.Stdout, os.Stderr
	os.Stdout, os.Stderr = devnull, w
	errc := make(chan string)
	go func() {
		buf, _ := io.ReadAll(r)
		errc <- string(buf)
	}()
	code := f()
	w.Close()
	os.Stdout, os.Stderr = oldOut, oldErr
	return code, <-errc
}

// captureStdout runs f with stderr discarded and stdout captured, and
// returns f's exit code with everything it wrote to stdout.
func captureStdout(t *testing.T, f func() int) (int, string) {
	t.Helper()
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	oldOut, oldErr := os.Stdout, os.Stderr
	os.Stdout, os.Stderr = w, devnull
	outc := make(chan string)
	go func() {
		buf, _ := io.ReadAll(r)
		outc <- string(buf)
	}()
	code := f()
	w.Close()
	os.Stdout, os.Stderr = oldOut, oldErr
	return code, <-outc
}

// TestFig2AllCSVOneTable: `fig2 -all -csv` is one parseable CSV table —
// a single header row followed by the rows of all six panels.
func TestFig2AllCSVOneTable(t *testing.T) {
	code, out := captureStdout(t, func() int { return run([]string{"fig2", "-all", "-lite", "-csv"}) })
	if code != 0 {
		t.Fatalf("exit code %d, want 0", code)
	}
	recs, err := csv.NewReader(strings.NewReader(out)).ReadAll()
	if err != nil {
		t.Fatalf("output is not one CSV table: %v", err)
	}
	headers := 0
	panels := make(map[string]bool)
	for _, rec := range recs {
		if rec[0] == "objective" {
			headers++
			continue
		}
		panels[rec[0]+"@"+rec[1]] = true
	}
	if headers != 1 {
		t.Errorf("%d header rows, want 1", headers)
	}
	if len(panels) != 6 {
		t.Errorf("rows cover %d panels, want 6", len(panels))
	}
}
