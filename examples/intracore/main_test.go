package main

import (
	"bytes"
	"os/exec"
	"testing"
)

// TestSmoke executes the example end to end and checks for the
// value-determinism verdict, so a refactor cannot silently break the
// walkthrough. The example is internal/dbuf's only consumer.
func TestSmoke(t *testing.T) {
	out, err := exec.Command("go", "run", ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go run .: %v\n%s", err, out)
	}
	if !bytes.Contains(out, []byte("value determinism")) {
		t.Errorf("output lacks the value-determinism verdict:\n%s", out)
	}
}
