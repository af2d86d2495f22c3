package experiments

import "sync"

// forEachIndexed runs fn(0), ..., fn(n-1) across min(workers, n)
// goroutines. Results must be written by fn into pre-indexed slots so that
// aggregation order never depends on goroutine scheduling. The returned
// error is the one from the LOWEST failing index — not the first to be
// observed — so error reporting is deterministic too. workers <= 1 runs
// inline and short-circuits on the first error, like a plain loop.
func forEachIndexed(n, workers int, fn func(i int) error) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				errs[i] = fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
