package cpu

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers is the number of workers Parallel(workers, n, …) runs:
// workers <= 0 means GOMAXPROCS, and the count is clamped to n. It is the
// tree's one worker-count rule; a caller sizes per-worker buffers with it.
func Workers(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return min(workers, n)
}

// Parallel runs task(worker, i) for every i in [0, n) on Workers(workers,
// n) goroutines.
// Workers claim indices from one shared atomic counter, so uneven tasks
// balance without pre-partitioning. worker is in [0, workers) and no two
// concurrent calls share it, so a caller may keep one buffer per worker.
// Tasks must write disjoint destinations; the result is then independent
// of the claiming order. With one worker the loop runs inline on the
// caller's goroutine, with no goroutine or synchronization cost.
func Parallel(workers, n int, task func(worker, i int)) {
	workers = Workers(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			task(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				task(w, i)
			}
		}()
	}
	wg.Wait()
}
