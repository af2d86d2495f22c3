package main

import (
	"bytes"
	"os/exec"
	"testing"
)

// TestSmoke executes the example end to end and checks for the Fig. 1
// timeline header and pins tau2's data-acquisition latency under the
// optimized order and under Giotto's, so a refactor cannot silently break
// the walkthrough or move the Fig. 1 result.
func TestSmoke(t *testing.T) {
	out, err := exec.Command("go", "run", ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go run .: %v\n%s", err, out)
	}
	if !bytes.Contains(out, []byte("proposed protocol")) {
		t.Errorf("output lacks the Fig. 1(b) header:\n%s", out)
	}
	if !bytes.Contains(out, []byte("28768ns (proposed) vs 409888ns (Giotto)")) {
		t.Errorf("output lacks the pinned Fig. 1 tau2 latencies:\n%s", out)
	}
}
