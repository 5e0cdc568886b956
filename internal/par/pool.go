package par

import (
	"runtime"
	"sync/atomic"
)

// Pool is the package's one parallel-for runtime: a persistent worker pool.
// A Pool owns workers-1 helper goroutines created once; each ForWorker call
// is a phase — the caller publishes the loop body, wakes the helpers,
// participates as worker 0, and waits on a completion counter. Across the
// five sweeps of a matvec (and across successive matvecs), and across the
// level-by-level phases of one construction, the same goroutines are
// reused, so the per-phase cost is a few atomic operations and channel
// wakes instead of a goroutine spawn/join per worker. A nil *Pool is the
// serial pool: it reports one worker and runs every loop inline, in order,
// as worker 0.
//
// Iterations are claimed in contiguous grains via an atomic counter, and
// every output slot of the sweeps is written by one claimant in a fixed
// order, so the bitwise result does not depend on which worker claims which
// grain.
//
// Concurrency contract: a Pool serves ONE client goroutine at a time —
// concurrent ForWorker calls on the same Pool race by design. Callers that
// apply concurrently check out one Pool each (core.Workspace owns one, and
// workspaces are pooled per in-flight apply). Close releases the helper
// goroutines; a finalizer releases them if a Pool is garbage-collected
// unclosed (e.g. dropped from a sync.Pool), so leaked Pools cannot leak
// goroutines.
type Pool struct {
	p *pool
}

// helperSpins bounds the optimistic spin a helper performs between finishing
// one phase and parking: back-to-back sweeps re-engage helpers without a
// channel round-trip. Each probe is one atomic load; every probe yields the
// processor, so on a loaded (or single-core) machine the spin degrades to a
// handful of scheduler yields before parking.
const helperSpins = 32

// callerSpins bounds the caller's spin while waiting for the last helpers to
// finish a phase before it parks on the completion channel.
const callerSpins = 128

// pool is the shared state helpers reference. It is split from the public
// handle so the finalizer on Pool can run while helpers still hold *pool.
type pool struct {
	workers int
	wakes   []chan struct{} // one buffered(1) wake token slot per helper

	// Phase state, written by the client between phases under the
	// gate/reading protocol below and read by helpers while participating.
	fn    func(worker, i int)
	n     int
	grain int

	next atomic.Int64 // next unclaimed iteration
	done atomic.Int64 // completed iterations; phase ends at n

	// phase is bumped (after publishing) to let spinning helpers detect new
	// work without consuming a wake token.
	phase atomic.Uint64

	// gate/reading close the publish race: a helper holds reading while it
	// examines phase state; the client raises gate, waits for reading to
	// drain, and only then overwrites the state. A helper that sees the gate
	// up backs off without touching the state.
	gate    atomic.Int32
	reading atomic.Int32

	callerWake chan struct{} // buffered(1): last finisher nudges a parked caller
	stop       atomic.Bool
}

// NewPool creates a pool with Resolve(workers) workers: the calling
// goroutine of each ForWorker acts as worker 0, and workers-1 persistent
// helpers are spawned now. A pool with one worker spawns nothing and runs
// phases inline. Close the pool to release the helpers; the finalizer covers
// pools that go out of scope unclosed.
func NewPool(workers int) *Pool {
	workers = Resolve(workers)
	p := &pool{
		workers:    workers,
		callerWake: make(chan struct{}, 1),
	}
	for h := 1; h < workers; h++ {
		w := make(chan struct{}, 1)
		p.wakes = append(p.wakes, w)
		go p.helper(h, w)
	}
	pub := &Pool{p: p}
	if workers > 1 {
		runtime.SetFinalizer(pub, func(pb *Pool) { pb.p.close() })
	}
	return pub
}

// Workers returns the pool's worker count (including the caller); a nil
// pool has one.
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return p.p.workers
}

// Close releases the helper goroutines. It is idempotent. The pool must not
// be used after Close; a phase must not be in flight.
func (p *Pool) Close() {
	runtime.SetFinalizer(p, nil)
	p.p.close()
}

func (p *pool) close() {
	if p.stop.Swap(true) {
		return
	}
	for _, w := range p.wakes {
		select {
		case w <- struct{}{}:
		default: // a pending token will deliver the wake
		}
	}
}

// For runs fn(i) for every i in [0, n) on the pool.
func (p *Pool) For(n int, fn func(i int)) {
	p.ForWorker(n, func(_, i int) { fn(i) })
}

// ForWorker runs fn(worker, i) for every i in [0, n) on the pool, passing
// the claiming worker's id in [0, workers). It returns when every iteration
// has completed. Not safe for concurrent use on one Pool.
func (p *Pool) ForWorker(n int, fn func(worker, i int)) {
	need := min(p.Workers(), n)
	if need <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	in := p.p

	// Publish the phase: raise the gate, wait out any helper still reading
	// the previous phase's state (normally none), overwrite, drop the gate.
	in.gate.Store(1)
	for in.reading.Load() != 0 {
		runtime.Gosched()
	}
	grain := n / (need * grainTarget)
	if grain < 1 {
		grain = 1
	}
	in.fn = fn
	in.n = n
	in.grain = grain
	in.next.Store(0)
	in.done.Store(0)
	in.gate.Store(0)
	in.phase.Add(1)

	// Wake enough helpers for the iteration count; the rest stay parked.
	for h := 0; h < need-1 && h < len(in.wakes); h++ {
		select {
		case in.wakes[h] <- struct{}{}:
		default: // already has a pending token
		}
	}

	// Participate as worker 0, then wait for the stragglers. The park
	// cannot deadlock: the loop exits solely on the completion counter, and
	// while done < n some claimant still owes a credit whose final Add
	// nudges callerWake — and if that nudge is dropped because the buffer
	// already holds a stale token, the stale token itself unparks the
	// caller for the recheck.
	in.run(0)
	for spin := 0; in.done.Load() < int64(n); spin++ {
		if spin < callerSpins {
			runtime.Gosched()
			continue
		}
		<-in.callerWake
	}
	// Every claimant read fn before crediting its grain, and late helpers
	// read it only after a successful claim (run), so no one reads it now.
	// Dropping it keeps the parked helpers, which hold *pool for the pool's
	// lifetime, from keeping the body — and whatever it captured, such as
	// the pool's own handle — reachable.
	in.fn = nil
}

// run claims grains until the phase is exhausted, crediting completed
// iterations to the phase's completion counter. The last crediting claimant
// nudges a possibly-parked caller. It reads the body only after a
// successful claim, so that ForWorker can drop it once the phase is done.
func (p *pool) run(worker int) {
	n, grain := p.n, p.grain
	var fn func(worker, i int)
	for {
		start := int(p.next.Add(int64(grain))) - grain
		if start >= n {
			return
		}
		if fn == nil {
			fn = p.fn
		}
		end := start + grain
		if end > n {
			end = n
		}
		for i := start; i < end; i++ {
			fn(worker, i)
		}
		if p.done.Add(int64(end-start)) == int64(n) {
			select {
			case p.callerWake <- struct{}{}:
			default:
			}
			return
		}
	}
}

// participate is a helper's guarded entry into the current phase. It holds
// reading while touching phase state so the client cannot republish
// mid-read; if the gate is up (client mid-publish) it backs off without
// participating — the client completes any phase by itself, so a missed
// helper costs parallelism for one phase, never correctness.
func (p *pool) participate(worker int) {
	p.reading.Add(1)
	if p.gate.Load() == 0 {
		p.run(worker)
	}
	p.reading.Add(-1)
}

// helper is the persistent worker loop: wait for a wake token (with a short
// optimistic spin on the phase counter first), participate, repeat.
func (p *pool) helper(worker int, wake <-chan struct{}) {
	var seen uint64
	for {
		// Optimistic: catch back-to-back phases without a channel round-trip.
		for spin := 0; spin < helperSpins; spin++ {
			if p.phase.Load() != seen || p.stop.Load() {
				break
			}
			runtime.Gosched()
		}
		if cur := p.phase.Load(); cur != seen {
			seen = cur
			p.participate(worker)
			continue
		}
		if p.stop.Load() {
			return
		}
		<-wake
		if p.stop.Load() {
			return
		}
		if cur := p.phase.Load(); cur != seen {
			seen = cur
			p.participate(worker)
		}
	}
}
