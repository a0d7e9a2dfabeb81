package stream

import (
	"runtime"
	"sync"
)

// ForEachIndexed runs n independent jobs on a bounded worker pool
// (workers <= 0 uses GOMAXPROCS). Each job writes only its own result
// slot, so output order is deterministic — parallel runs produce
// results identical to sequential ones. The per-year figure series
// (analysis.Figure2Series et al.) and concurrent windowed store
// queries (examples/longitudinal) run on it.
func ForEachIndexed(n, workers int, job func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			job(i)
		}
		return
	}
	var wg sync.WaitGroup
	jobs := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				job(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
}
