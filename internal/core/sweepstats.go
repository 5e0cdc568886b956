package core

import (
	"sync/atomic"
	"time"
)

// sweepEpoch anchors the monotonic sweep-stage timestamps.
var sweepEpoch = time.Now()

// nowNS returns a monotonic nanosecond timestamp for the sweep timers. One
// call is ~tens of nanoseconds; each scheduled task takes two, which is
// noise against even the smallest per-node kernel.
func nowNS() int64 { return int64(time.Since(sweepEpoch)) }

// sweepTimers accumulates cumulative per-stage task time across every apply
// (vector, transpose, batch, and both halves of the sharded apply) of a
// Matrix: each scheduled task's duration is charged to its stage and summed
// over workers — and over concurrent applies — so the sums are CPU-style
// stage costs that can exceed wall time, at every worker count. They are
// intended for relative stage breakdowns (the serve layer's /stats endpoint
// reports them).
type sweepTimers struct {
	applies  atomic.Int64
	up       atomic.Int64
	coupling atomic.Int64
	down     atomic.Int64
	leaf     atomic.Int64

	// On-the-fly instrumentation: cumulative nanoseconds spent in fused
	// block evaluation (the former assemble-then-multiply cost), and store
	// hit/miss counts. Workers accumulate into padded per-worker
	// counters during a sweep and flush here once per apply, so the hot
	// path performs no atomic operations per block.
	otfAssembly  atomic.Int64
	hybridHits   atomic.Int64
	hybridMisses atomic.Int64
}

// recordStages credits one drain's per-stage task durations, summed over its
// workers. Each total lands with one atomic add per stage; the apply itself
// is counted separately by runScheduled.
func (t *sweepTimers) recordStages(up, coupling, down, leaf int64) {
	t.up.Add(up)
	t.coupling.Add(coupling)
	t.down.Add(down)
	t.leaf.Add(leaf)
}

// SweepStats is a snapshot of the cumulative per-stage sweep timings: how
// the matvec time splits across the upward (leaf projection + bottom-to-top
// transfer), coupling, downward (top-to-bottom transfer), and leaf
// (expansion + nearfield) stages of Algorithm 2.
//
// The stage fields have one meaning at every worker count: the time spent
// in that stage's tasks, summed over workers (so with w busy workers the
// four sums can reach w times the apply's wall time). Applies counts
// complete applies — vector, transpose, batch, and sharded gathers; a
// shard's scatter half adds its upward and coupling task time but no apply.
type SweepStats struct {
	Applies    int64 `json:"applies"`
	UpNS       int64 `json:"up_ns"`
	CouplingNS int64 `json:"coupling_ns"`
	DownNS     int64 `json:"down_ns"`
	LeafNS     int64 `json:"leaf_ns"`

	// OtfAssemblyNS is the cumulative time spent evaluating coupling and
	// nearfield blocks on the fly (fused kernel evaluation); zero in
	// Normal mode. HybridHits/HybridMisses count block applications served
	// from the hybrid store versus evaluated on the fly; zero outside
	// Hybrid mode.
	OtfAssemblyNS int64 `json:"otf_assembly_ns"`
	HybridHits    int64 `json:"hybrid_hits"`
	HybridMisses  int64 `json:"hybrid_misses"`
}

// SweepStats returns the cumulative stage timings recorded since the matrix
// was built. Safe for concurrent use.
func (m *Matrix) SweepStats() SweepStats {
	ss := SweepStats{
		Applies:       m.sweeps.applies.Load(),
		UpNS:          m.sweeps.up.Load(),
		CouplingNS:    m.sweeps.coupling.Load(),
		DownNS:        m.sweeps.down.Load(),
		LeafNS:        m.sweeps.leaf.Load(),
		OtfAssemblyNS: m.sweeps.otfAssembly.Load(),
	}
	// The sweeps count store hits and misses in every mode; only a hybrid
	// store's split is news.
	if m.Cfg.Mode == Hybrid {
		ss.HybridHits = m.sweeps.hybridHits.Load()
		ss.HybridMisses = m.sweeps.hybridMisses.Load()
	}
	return ss
}
