// Package par provides the shared-memory parallel runtime used by the
// hierarchical matrix code: a bounded parallel-for with explicit worker
// counts and per-worker identities (so workers can own scratch buffers, as
// in the paper's one-coupling-block-per-thread on-the-fly mode).
//
// The worker count is a first-class parameter rather than GOMAXPROCS so the
// thread-scaling experiment (paper Fig 7) can sweep it deterministically.
package par

import "runtime"

// Resolve normalizes a worker-count request: values <= 0 mean "use
// GOMAXPROCS".
func Resolve(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// For runs fn(i) for every i in [0, n) using at most the given number of
// workers, on a one-shot Pool opened for this loop and closed when it
// returns. Callers that run many loops should hold a Pool instead.
func For(workers, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	p := NewPool(min(Resolve(workers), n))
	defer p.Close()
	p.For(n, fn)
}

// grainTarget is the desired number of grains per worker; larger values
// improve load balance for irregular work at slightly higher claim traffic.
const grainTarget = 8
