package let_test

import (
	"fmt"
	"slices"
	"testing"

	"letdma/internal/let"
	"letdma/internal/sysgen"
	"letdma/internal/timeutil"
	"letdma/internal/waters"
)

type named struct {
	name string
	a    *let.Analysis
}

// corpus returns the analyses the pattern index is checked on: full
// WATERS, WATERS-lite and three seeds of every sysgen family.
func corpus(t *testing.T) []named {
	t.Helper()
	full, err := waters.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	lite, err := let.Analyze(waters.Lite())
	if err != nil {
		t.Fatal(err)
	}
	out := []named{{"waters", full}, {"lite", lite}}
	scs, err := sysgen.GenerateN(1, 3*len(sysgen.Families()))
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range scs {
		if a, err := let.Analyze(sc.Sys); err == nil {
			out = append(out, named{sc.Name, a})
		}
	}
	return out
}

// referenceReps is the grouping ActiveSubsets used before the pattern
// index: one fmt.Sprint key per instant, first occurrence wins.
func referenceReps(a *let.Analysis) []timeutil.Time {
	seen := make(map[string]bool)
	var reps []timeutil.Time
	for _, t := range a.Instants() {
		key := fmt.Sprint(a.ActiveAt(t))
		if !seen[key] {
			seen[key] = true
			reps = append(reps, t)
		}
	}
	return reps
}

// TestPatternIndexMatchesReference: ActiveSubsets returns the same
// representatives in the same order as the per-call fmt.Sprint grouping,
// and PatternOf maps every instant of T* to a representative with the
// same active set (and every other instant to -1).
func TestPatternIndexMatchesReference(t *testing.T) {
	for _, c := range corpus(t) {
		name, a := c.name, c.a
		reps := a.ActiveSubsets()
		if want := referenceReps(a); !slices.Equal(reps, want) {
			t.Errorf("%s: ActiveSubsets = %v, want %v", name, reps, want)
			continue
		}
		for _, t0 := range a.Instants() {
			p := a.PatternOf(t0)
			if p < 0 || p >= len(reps) {
				t.Fatalf("%s: PatternOf(%v) = %d, outside [0, %d)", name, t0, p, len(reps))
			}
			if !slices.Equal(a.ActiveAt(t0), a.ActiveAt(reps[p])) {
				t.Errorf("%s: C(%v) = %v, but its pattern %d has C(%v) = %v",
					name, t0, a.ActiveAt(t0), p, reps[p], a.ActiveAt(reps[p]))
			}
			if next := t0 + 1; a.ActiveAt(next) == nil && a.PatternOf(next) != -1 {
				t.Errorf("%s: PatternOf(%v) = %d for an instant outside T*", name, next, a.PatternOf(next))
			}
		}
		if got := a.PatternOf(a.H); got != -1 {
			t.Errorf("%s: PatternOf(H) = %d, want -1", name, got)
		}
	}
}
