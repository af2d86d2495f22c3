package main

import (
	"bytes"
	"os/exec"
	"testing"
)

// TestSmoke executes the example end to end and checks for the
// validation verdict, so a refactor cannot silently break the walkthrough.
func TestSmoke(t *testing.T) {
	out, err := exec.Command("go", "run", ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go run .: %v\n%s", err, out)
	}
	if !bytes.Contains(out, []byte("solution validated")) {
		t.Errorf("output lacks the validation verdict:\n%s", out)
	}
}
