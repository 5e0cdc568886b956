package serve

import (
	"context"
	"errors"
	"math/bits"
	"sync/atomic"
	"time"
)

// hist is a lock-free log₂-bucketed histogram. Bucket i counts observations
// v with 2^i <= v < 2^(i+1) (bucket 0 additionally absorbs v <= 1), so 32
// buckets cover any duration the service can plausibly see at microsecond
// resolution. Writers only Add; Snapshot reads are approximate under
// concurrent traffic, which is fine for monitoring.
type hist struct {
	buckets [32]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
}

// observe records one value in native units (>= 0).
func (h *hist) observe(v int64) {
	b := 0
	if v > 1 {
		b = bits.Len64(uint64(v)) - 1
	}
	if b >= len(h.buckets) {
		b = len(h.buckets) - 1
	}
	h.buckets[b].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// observeDur records a duration in microseconds.
func (h *hist) observeDur(d time.Duration) {
	us := d.Microseconds()
	if us < 0 {
		us = 0
	}
	h.observe(us)
}

// HistSnapshot is a point-in-time summary of one histogram. Values are in
// the histogram's native units (microseconds for the latency histograms,
// requests for the batch-occupancy histogram). Quantiles are upper bounds of
// the log₂ bucket containing the quantile, so they are accurate to within a
// factor of two.
type HistSnapshot struct {
	Count int64   `json:"count"`
	Mean  float64 `json:"mean"`
	P50   int64   `json:"p50"`
	P99   int64   `json:"p99"`
	Max   int64   `json:"max"`
}

// quantile returns the upper bound of the bucket holding quantile q given
// the total count; counts is a consistent-enough copy of the buckets.
func quantile(counts *[32]int64, total int64, q float64) int64 {
	if total == 0 {
		return 0
	}
	target := int64(q * float64(total))
	if target < 1 {
		target = 1
	}
	var seen int64
	for i, c := range counts {
		seen += c
		if seen >= target {
			return int64(1) << uint(i+1)
		}
	}
	return int64(1) << 32
}

func (h *hist) snapshot() HistSnapshot {
	var counts [32]int64
	var total int64
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	s := HistSnapshot{
		Count: total,
		P50:   quantile(&counts, total, 0.50),
		P99:   quantile(&counts, total, 0.99),
		Max:   h.max.Load(),
	}
	if total > 0 {
		s.Mean = float64(h.sum.Load()) / float64(total)
	}
	return s
}

// stats is the Batcher's internal instrumentation: pure atomics on the hot
// path, aggregated into a Stats value on demand.
type stats struct {
	submitted atomic.Int64
	served    atomic.Int64
	batches   atomic.Int64
	pending   atomic.Int64 // admitted but not yet answered (queued or packed)

	dropQueueFull atomic.Int64
	dropDeadline  atomic.Int64
	dropCanceled  atomic.Int64
	dropClosed    atomic.Int64

	shardPartials atomic.Int64 // sharded-apply partial sweeps served
	gathers       atomic.Int64 // sharded-apply gather merges completed

	occupancy hist // requests per flushed batch
	queueWait hist // µs from enqueue to pack
	flushLat  hist // µs for one ApplyBatchTo flush
}

// admit counts d admissions (d = -1 rolls back one whose enqueue failed).
// Apply counts a request before it enters the queue, so its answer can
// never retire it from pending first.
func (st *stats) admit(d int64) {
	st.submitted.Add(d)
	st.pending.Add(d)
}

// drop classifies a context error into the deadline/cancel counters.
func (st *stats) drop(err error) {
	if errors.Is(err, context.DeadlineExceeded) {
		st.dropDeadline.Add(1)
		return
	}
	st.dropCanceled.Add(1)
}

// flushed counts one executed flush of k requests that took d.
func (st *stats) flushed(k int, d time.Duration) {
	st.flushLat.observeDur(d)
	st.batches.Add(1)
	st.served.Add(int64(k))
	st.occupancy.observe(int64(k))
}

// Stats is a point-in-time snapshot of the Batcher's counters. Drops by
// cause: QueueFull (fast-fail backpressure), Deadline and Canceled (request
// context expired before its slot was packed into a batch, or while
// blocking for queue space), Closed (arrived after Close).
type Stats struct {
	Submitted int64 `json:"submitted"` // requests accepted into the queue
	Served    int64 `json:"served"`    // requests whose result was computed
	Batches   int64 `json:"batches"`   // flushes executed

	DroppedQueueFull int64 `json:"dropped_queue_full"`
	DroppedDeadline  int64 `json:"dropped_deadline"`
	DroppedCanceled  int64 `json:"dropped_canceled"`
	DroppedClosed    int64 `json:"dropped_closed"`

	QueueDepth int   `json:"queue_depth"` // requests queued but not yet claimed by the dispatcher
	Pending    int64 `json:"pending"`     // requests admitted but not yet answered (queued or packed)

	ShardPartials int64 `json:"shard_partials,omitempty"` // cluster scatter partial sweeps served
	Gathers       int64 `json:"gathers,omitempty"`        // cluster gather merges completed

	BatchOccupancy HistSnapshot `json:"batch_occupancy"` // requests per batch
	QueueWaitUS    HistSnapshot `json:"queue_wait_us"`   // enqueue → pack
	FlushUS        HistSnapshot `json:"flush_us"`        // one batched apply
}

// Stats returns a snapshot of the batcher's counters and histograms. It is
// safe to call concurrently with traffic; the snapshot is approximate under
// load (counters are read individually, not atomically as a set). Pending is
// read first: flushes are counted before their requests are answered, so
// every request already retired from Pending is in the snapshot's Served.
func (s *Batcher) Stats() Stats {
	pending := s.st.pending.Load()
	return Stats{
		Submitted:        s.st.submitted.Load(),
		Served:           s.st.served.Load(),
		Batches:          s.st.batches.Load(),
		DroppedQueueFull: s.st.dropQueueFull.Load(),
		DroppedDeadline:  s.st.dropDeadline.Load(),
		DroppedCanceled:  s.st.dropCanceled.Load(),
		DroppedClosed:    s.st.dropClosed.Load(),
		QueueDepth:       len(s.submit),
		Pending:          pending,
		ShardPartials:    s.st.shardPartials.Load(),
		Gathers:          s.st.gathers.Load(),
		BatchOccupancy:   s.st.occupancy.snapshot(),
		QueueWaitUS:      s.st.queueWait.snapshot(),
		FlushUS:          s.st.flushLat.snapshot(),
	}
}
