// Fixture for the sharedwrite analyzer, modeled on a worker pool: closures
// handed to forEachIndexed run on worker goroutines, so unguarded writes to
// captured variables depend on goroutine schedule.
package sharedwrite

import (
	"sync"
	"sync/atomic"
)

// forEachIndexed runs fn(i) for i in [0, n) on worker goroutines — the
// worker-pool shape the analyzer's spawn summaries see through.
func forEachIndexed(n, workers int, fn func(int)) {
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
}

// doubleBatch is the seeded bug: the pre-indexed slot write is the sanctioned
// pattern, but the captured node counter races and makes the count depend on
// the schedule — exactly what Workers-invariance forbids.
func doubleBatch(batch []int, workers int) ([]int, int) {
	nodes := 0
	results := make([]int, len(batch))
	forEachIndexed(len(batch), workers, func(i int) {
		results[i] = batch[i] * 2
		nodes++ // want "update of nodes captured by a goroutine-run closure"
	})
	return results, nodes
}

// collect appends from plain go statements: append reads and replaces the
// captured slice header concurrently.
func collect(items []int) []int {
	var out []int
	var wg sync.WaitGroup
	for _, it := range items {
		wg.Add(1)
		go func(v int) {
			defer wg.Done()
			out = append(out, v) // want "append to out captured by a goroutine-run closure"
		}(it)
	}
	wg.Wait()
	return out
}

// total is guarded: the write follows a Lock on a captured mutex.
func total(items []int, workers int) int {
	var mu sync.Mutex
	sum := 0
	forEachIndexed(len(items), workers, func(i int) {
		mu.Lock()
		defer mu.Unlock()
		sum += items[i]
	})
	return sum
}

// fill uses only the pre-indexed slot discipline: every invocation owns a
// disjoint element of the captured slice.
func fill(n, workers int) []int {
	out := make([]int, n)
	forEachIndexed(n, workers, func(i int) {
		out[i] = i * i
	})
	return out
}

// bestEffort carries a reviewed waiver: the hint is monotonic scratch state
// whose exact final value is immaterial.
func bestEffort(items []int, workers int) int {
	hint := 0
	forEachIndexed(len(items), workers, func(i int) {
		//letvet:sharedwrite best-effort hint, exact value immaterial
		hint = items[i]
	})
	return hint
}

// workerStats is the per-worker scratch of the work-stealing shape below.
type workerStats struct{ nodes, steals int }

// fastWorkers mirrors the work-stealing branch-and-bound engine's spawn
// shape (internal/milp solveFast): per-worker state lives in pre-indexed
// slots of a captured slice, shared counters go through sync/atomic
// METHOD calls — which are not captured-variable writes at all — and
// anything that is neither is still a finding. The discipline is
// recognized by the analyzer, not waived.
func fastWorkers(workers int) ([]workerStats, int64, int) {
	var wg sync.WaitGroup
	var inflight atomic.Int64
	locals := make([]workerStats, workers)
	published := 0
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			locals[id].nodes++ // pre-indexed slot: each worker owns its struct
			if id > 0 {
				locals[id].steals++ // still the slot discipline under branching
			}
			inflight.Add(1) // atomic method call, not a write to a captured variable
			published++     // want "update of published captured by a goroutine-run closure"
		}(w)
	}
	wg.Wait()
	return locals, inflight.Load(), published
}
