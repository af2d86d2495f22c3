// Fixture for the detrange analyzer: order-dependent effects under
// range-over-map loops.
package detrange

import (
	"math"
	"math/rand"
	"sort"
)

type model struct {
	names []string
}

func (m *model) AddVar(name string) { m.names = append(m.names, name) }
func (m *model) lookup(string) bool { return false }

func emitAppend(vars map[string]int) []string {
	var out []string
	for name := range vars { // want "order-dependent effect \\(append to out\\)"
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func emitVars(m *model, vars map[string]int) {
	for name := range vars { // want "order-dependent effect \\(call to m.AddVar\\)"
		m.AddVar(name)
	}
}

func writeOuter(weights map[string]float64) float64 {
	var total float64
	for _, w := range weights { // want "order-dependent effect \\(write to total\\)"
		total = total + w
	}
	return total
}

func countOuter(vars map[string]int) int {
	n := 0
	for range vars { // want "order-dependent effect \\(update of n\\)"
		n++
	}
	return n
}

// Keyed stores into surrounding maps commute across distinct keys: allowed.
func invert(vars map[string]int) map[int]string {
	inv := make(map[int]string, len(vars))
	for name, i := range vars {
		inv[i] = name
	}
	return inv
}

// Pure reads with an order-independent outcome: allowed.
func allPositive(weights map[string]float64) bool {
	for _, w := range weights {
		if w <= 0 {
			return false
		}
	}
	return true
}

// Iterating a sorted key slice is the compliant pattern: not a map range.
func emitSorted(m *model, vars map[string]int) {
	keys := emitAppend(vars)
	for _, name := range keys {
		m.AddVar(name)
	}
}

// Genuinely commutative per-iteration effects may be waived.
func markAll(flags map[string]bool, marks []bool, idx map[string]int) {
	//letvet:ordered
	for name := range flags {
		marks[idx[name]] = true
	}
}

type task struct {
	period, wcet float64
}

func powRand(rng *rand.Rand, exp float64) float64 { return math.Pow(rng.Float64(), exp) }

// A per-core utilization split that ranges over a map of cores and draws
// from the caller's generator: which core gets which draw depends on the
// map order (the shape of an old waters.Automotive bug).
func splitUtilization(rng *rand.Rand, perCore map[int][]*task, util float64) {
	for _, ts := range perCore { // want "order-dependent effect \\(draw from rng\\)"
		u := util
		for i, t := range ts {
			ui := u
			if i < len(ts)-1 {
				next := u * powRand(rng, 1/float64(len(ts)-1-i))
				ui = u - next
				u = next
			}
			t.wcet = ui * t.period
		}
	}
}

// A method draw in a condition is a draw too.
func pickSome(rng *rand.Rand, names map[string]bool) {
	for name := range names { // want "order-dependent effect \\(draw from rng\\)"
		if rng.Intn(2) == 0 {
			names[name] = false
		}
	}
}

// A generator seeded inside the loop body does not carry state from one
// key to the next: allowed.
func perKeySeed(seeds map[string]int64, out map[string]int) {
	for name, seed := range seeds {
		r := rand.New(rand.NewSource(seed))
		out[name] = r.Intn(10)
	}
}

// The range statement's own := key and value are per-iteration variables:
// updating them is not surrounding state.
func perIterationValue(req map[int]int, out map[int]int) {
	for m, bytes := range req {
		bytes--
		out[m] = bytes
	}
}

// A range that assigns with = writes the surrounding variables on every
// iteration, so the last key's value survives the loop: flagged.
func lastValue(req map[int]int) int {
	var m, bytes int
	for m, bytes = range req { // want "order-dependent effect \\(update of bytes\\)"
		bytes--
	}
	return m + bytes
}
