package faultsim

import "testing"

// The tests in package faultsim_test import sysgen, which imports this
// package, so they reach the search through these hooks.

// BisectSlowdown is the reference search, bisectSlowdown.
var BisectSlowdown = bisectSlowdown

// SearchSlowdown runs the critical-slowdown search of cfg as
// ComputeMargin does and returns the margin and the replays it cost.
func SearchSlowdown(t *testing.T, cfg MarginConfig) (int64, int) {
	t.Helper()
	r := testReplayer(t, cfg)
	crit, err := r.criticalSlowdown()
	if err != nil {
		t.Fatal(err)
	}
	return crit, r.searchReplays
}
