// Package par provides the shared-memory parallel runtime used by the
// hierarchical matrix code: a persistent worker pool with explicit worker
// counts and per-worker identities (so workers can own scratch buffers, as
// in the paper's one-coupling-block-per-thread on-the-fly mode). Every
// parallel loop runs on a Pool its caller holds; a nil *Pool runs the loop
// inline as worker 0, which is how callers ask for a serial run.
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

// grainTarget is the desired number of grains per worker; larger values
// improve load balance for irregular work at slightly higher claim traffic.
const grainTarget = 8
