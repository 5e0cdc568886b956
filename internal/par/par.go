// Package par provides the shared-memory parallel runtime used by the
// hierarchical matrix code: a bounded parallel-for with explicit worker
// counts and per-worker identities (so workers can own scratch buffers, as
// in the paper's one-coupling-block-per-thread on-the-fly mode).
//
// The worker count is a first-class parameter rather than GOMAXPROCS so the
// thread-scaling experiment (paper Fig 7) can sweep it deterministically.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Resolve normalizes a worker-count request: values <= 0 mean "use
// GOMAXPROCS".
func Resolve(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// For runs fn(i) for every i in [0, n) using at most the given number of
// workers. Iterations are claimed in contiguous grains via an atomic
// counter, which balances irregular per-node work (tree nodes differ wildly
// in cost) without a scheduler.
func For(workers, n int, fn func(i int)) {
	ForWorker(workers, n, func(_, i int) { fn(i) })
}

// grainTarget is the desired number of grains per worker; larger values
// improve load balance for irregular work at slightly higher claim traffic.
const grainTarget = 8

// ForWorker is like For but also passes the worker id in [0, workers) so
// callers can maintain per-worker scratch state.
func ForWorker(workers, n int, fn func(worker, i int)) {
	if n <= 0 {
		return
	}
	workers = Resolve(workers)
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	grain := n / (workers * grainTarget)
	if grain < 1 {
		grain = 1
	}
	var next int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(worker int) {
			defer wg.Done()
			for {
				start := int(atomic.AddInt64(&next, int64(grain))) - grain
				if start >= n {
					return
				}
				end := start + grain
				if end > n {
					end = n
				}
				for i := start; i < end; i++ {
					fn(worker, i)
				}
			}
		}(w)
	}
	wg.Wait()
}
