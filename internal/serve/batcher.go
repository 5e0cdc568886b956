// Package serve turns the batched multi-RHS matvec into a request-level
// service primitive: a Batcher owns one frozen *core.Matrix, accepts
// concurrent Apply calls, and coalesces independent requests into single
// ApplyBatchTo flushes. Batching independent traffic over the shared
// hierarchical structure is the same locality lever the five-sweep batch
// path exploits per block — every coupling/nearfield block (in on-the-fly
// mode, every kernel tile assembly) is visited once per flush instead of
// once per request — lifted from the solver level to the serving level.
//
// Lifecycle: NewBatcher starts a dispatcher goroutine and a pool of flush
// workers. Apply enqueues a request into a bounded queue; the dispatcher
// packs pending requests into batches of at most MaxBatch, flushing early
// when a FlushWindow timer (armed at the batch's first request) expires.
// Close drains: every request admitted before Close is flushed and answered
// before Close returns.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"h2ds/internal/core"
	"h2ds/internal/mat"
)

var (
	// ErrQueueFull is returned by Apply in fast-fail mode (Config.Block
	// false) when the submission queue is at QueueLimit.
	ErrQueueFull = errors.New("serve: queue full")
	// ErrClosed is returned by Apply after Close has been called.
	ErrClosed = errors.New("serve: batcher closed")
)

// Config tunes a Batcher. The zero value is usable: every field has a
// sensible default applied by NewBatcher.
type Config struct {
	// MaxBatch is the flush width: a batch is dispatched as soon as this
	// many requests are pending (default 16). Larger widths amortize block
	// visits further but add queueing latency under light load.
	MaxBatch int

	// FlushWindow bounds the extra latency batching may add: a partial
	// batch is flushed this long after its first request arrived (default
	// 500µs).
	FlushWindow time.Duration

	// QueueLimit bounds requests that are enqueued but not yet claimed by
	// the dispatcher (default 4×MaxBatch). At the limit, Apply either
	// fast-fails with ErrQueueFull or blocks, per Block.
	QueueLimit int

	// Block selects the backpressure mode at QueueLimit: false (default)
	// fast-fails with ErrQueueFull so callers can shed load; true blocks
	// the caller until space frees or its context expires.
	Block bool

	// Flushers is the number of flush workers executing batches
	// concurrently (default 2). Each worker owns one core.Workspace reused
	// across flushes, so steady-state flushing does not allocate workspace
	// buffers.
	Flushers int
}

// withDefaults resolves zero fields.
func (c Config) withDefaults() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 16
	}
	if c.FlushWindow <= 0 {
		c.FlushWindow = 500 * time.Microsecond
	}
	if c.QueueLimit <= 0 {
		c.QueueLimit = 4 * c.MaxBatch
	}
	if c.Flushers <= 0 {
		c.Flushers = 2
	}
	return c
}

// request is one in-flight Apply call.
type request struct {
	ctx      context.Context
	b        []float64
	enqueued time.Time
	done     chan result // buffered: a flush never blocks on an abandoned caller
}

type result struct {
	y   []float64
	err error
}

// Batcher coalesces concurrent matvec requests against one H² matrix into
// batched applies. All methods are safe for concurrent use.
type Batcher struct {
	m   *core.Matrix
	cfg Config

	// mu serializes admissions against Close: Apply holds the read side
	// from the closed check through the enqueue, so once Close's write lock
	// is acquired every admitted request is already in submit and the drain
	// below is complete.
	mu     sync.RWMutex
	closed bool

	submit  chan *request   // bounded admission queue (cap QueueLimit)
	flushCh chan []*request // dispatcher → flush workers (unbuffered)
	stopCh  chan struct{}   // closed by Close: dispatcher drains and exits
	doneCh  chan struct{}   // closed when the dispatcher has exited

	workers sync.WaitGroup

	st stats

	// testHookBeforeFlush, when non-nil, runs in the flush worker before a
	// batch is packed. Tests use it to stall the pipeline deterministically.
	testHookBeforeFlush func()
}

// NewBatcher starts a batching service over m. The matrix must be fully
// built (frozen); the Batcher never mutates it. Call Close to release the
// dispatcher and flush workers.
func NewBatcher(m *core.Matrix, cfg Config) *Batcher {
	cfg = cfg.withDefaults()
	s := &Batcher{
		m:       m,
		cfg:     cfg,
		submit:  make(chan *request, cfg.QueueLimit),
		flushCh: make(chan []*request),
		stopCh:  make(chan struct{}),
		doneCh:  make(chan struct{}),
	}
	s.workers.Add(cfg.Flushers)
	for i := 0; i < cfg.Flushers; i++ {
		go s.flushWorker()
	}
	go s.dispatch()
	return s
}

// Matrix returns the matrix the batcher serves.
func (s *Batcher) Matrix() *core.Matrix { return s.m }

// Apply computes y = Â b, coalescing the request with concurrent callers
// into one batched product. b must have length N and must not be modified
// until Apply returns; the returned slice is freshly allocated and owned by
// the caller.
//
// Deadline semantics: a request whose context expires while it waits in the
// queue is dropped at pack time — before its slot is packed into a batch,
// never after — and Apply returns ctx.Err(). Once packed, the product is
// computed even if the caller has gone; the caller still returns promptly
// with ctx.Err() and the result is discarded.
func (s *Batcher) Apply(ctx context.Context, b []float64) ([]float64, error) {
	if len(b) != s.m.N {
		return nil, fmt.Errorf("serve: apply length %d, matrix has n=%d", len(b), s.m.N)
	}
	req := &request{ctx: ctx, b: b, enqueued: time.Now(), done: make(chan result, 1)}

	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		s.st.dropClosed.Add(1)
		return nil, ErrClosed
	}
	// Count the admission before the enqueue: once req is in submit a
	// flush worker may answer it, and the answer retires it from Pending.
	s.st.admit(1)
	if s.cfg.Block {
		select {
		case s.submit <- req:
		case <-ctx.Done():
			s.st.admit(-1)
			s.mu.RUnlock()
			s.st.drop(ctx.Err())
			return nil, ctx.Err()
		}
	} else {
		select {
		case s.submit <- req:
		default:
			s.st.admit(-1)
			s.mu.RUnlock()
			s.st.dropQueueFull.Add(1)
			return nil, ErrQueueFull
		}
	}
	s.mu.RUnlock()

	select {
	case res := <-req.done:
		return res.y, res.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Close stops admissions, flushes every already-admitted request, waits for
// the flush workers to finish, and returns. It is idempotent; concurrent
// calls all return after the drain completes.
func (s *Batcher) Close() {
	s.mu.Lock()
	already := s.closed
	s.closed = true
	s.mu.Unlock()
	if !already {
		close(s.stopCh)
	}
	<-s.doneCh
	s.workers.Wait()
}

// dispatch is the single consumer of the submission queue: it groups
// requests into batches of at most MaxBatch and hands them to the flush
// workers. A batch is dispatched when it is full or when FlushWindow has
// elapsed since its first request.
func (s *Batcher) dispatch() {
	defer close(s.doneCh)
	defer close(s.flushCh)
	for {
		var first *request
		select {
		case first = <-s.submit:
		case <-s.stopCh:
			s.drain(nil)
			return
		}
		batch := append(make([]*request, 0, s.cfg.MaxBatch), first)
		timer := time.NewTimer(s.cfg.FlushWindow)
	collect:
		for len(batch) < s.cfg.MaxBatch {
			select {
			case r := <-s.submit:
				batch = append(batch, r)
			case <-timer.C:
				break collect
			case <-s.stopCh:
				timer.Stop()
				s.drain(batch)
				return
			}
		}
		timer.Stop()
		s.flushCh <- batch
	}
}

// drain runs after Close: by the time stopCh is closed, every admitted
// request is already in submit (Close's write lock waits out in-flight
// admissions), so a non-blocking sweep flushes exactly the remaining work.
func (s *Batcher) drain(batch []*request) {
	for {
		select {
		case r := <-s.submit:
			batch = append(batch, r)
			if len(batch) == s.cfg.MaxBatch {
				s.flushCh <- batch
				batch = make([]*request, 0, s.cfg.MaxBatch)
			}
		default:
			if len(batch) > 0 {
				s.flushCh <- batch
			}
			return
		}
	}
}

// answer delivers one result and retires the request from the pending
// gauge. Every admitted request is answered exactly once, here, after its
// flush is counted, so a caller that has its answer — or a Stats snapshot
// that reads Pending 0 — already sees it in Served and Batches.
func (s *Batcher) answer(r *request, res result) {
	s.st.pending.Add(-1)
	r.done <- res
}

// flushWorker executes batches. Each worker owns one workspace and one pair
// of batch matrices for its lifetime, so steady-state flushes reuse every
// buffer. Requests whose context has expired are dropped here, at pack
// time; live requests are packed column-wise and answered from the batched
// product. A single-request flush is width 1, which runs the vector
// arithmetic.
func (s *Batcher) flushWorker() {
	defer s.workers.Done()
	ws := s.m.NewWorkspace()
	defer ws.Close()
	B := mat.NewDense(0, 0)
	Y := mat.NewDense(0, 0)
	live := make([]*request, 0, s.cfg.MaxBatch)
	for batch := range s.flushCh {
		if s.testHookBeforeFlush != nil {
			s.testHookBeforeFlush()
		}
		now := time.Now()
		live = live[:0]
		for _, r := range batch {
			if err := r.ctx.Err(); err != nil {
				s.st.drop(err)
				s.answer(r, result{err: err})
				continue
			}
			s.st.queueWait.observeDur(now.Sub(r.enqueued))
			live = append(live, r)
		}
		if len(live) == 0 {
			continue
		}
		n, k := s.m.N, len(live)
		t0 := time.Now()
		B.Reshape(n, k)
		for j, r := range live {
			for i, v := range r.b {
				B.Data[i*k+j] = v
			}
		}
		s.m.ApplyBatchToWith(ws, Y, B)
		s.st.flushed(k, time.Since(t0))
		for j, r := range live {
			y := make([]float64, n)
			for i := range y {
				y[i] = Y.Data[i*k+j]
			}
			s.answer(r, result{y: y})
		}
	}
}
