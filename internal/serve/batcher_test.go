package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"h2ds/internal/core"
	"h2ds/internal/kernel"
	"h2ds/internal/pointset"
)

var (
	testMatOnce sync.Once
	testMat     *core.Matrix
)

// testMatrix returns one shared small on-the-fly matrix: batcher tests only
// need a frozen matrix, and sharing it keeps the -race suite fast.
func testMatrix(t *testing.T) *core.Matrix {
	t.Helper()
	testMatOnce.Do(func() {
		pts := pointset.Cube(600, 3, 11)
		m, err := core.Build(pts, kernel.Coulomb{},
			core.Config{Kind: core.DataDriven, Mode: core.OnTheFly, Tol: 1e-6, LeafSize: 50})
		if err != nil {
			panic(err)
		}
		testMat = m
	})
	return testMat
}

func randVec(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func maxRelDiff(a, b []float64) float64 {
	d := 0.0
	for i, v := range a {
		if r := math.Abs(b[i]-v) / (1 + math.Abs(v)); r > d {
			d = r
		}
	}
	return d
}

// driftKernel is an unsymmetric kernel, K(x, y) = exp(-||x - y - shift||),
// so a batcher can serve the general U/V, R/W factorization.
type driftKernel struct{}

func (driftKernel) EvalPair(x, y []float64) float64 {
	shift := [3]float64{0.15, -0.08, 0.05}
	s := 0.0
	for i := range x {
		v := x[i] - y[i] - shift[i]
		s += v * v
	}
	return math.Exp(-math.Sqrt(s))
}

func (driftKernel) Symmetric() bool { return false }
func (driftKernel) Name() string    { return "drift-exp" }

// batcherInputs returns vecs request vectors of length n cycling through a
// random vector, a unit vector, and a half-zeroed random vector with exact
// +0 and -0 entries.
func batcherInputs(n, vecs int) [][]float64 {
	ins := make([][]float64, vecs)
	for v := range ins {
		in := randVec(n, int64(100+v))
		switch v % 3 {
		case 1:
			clear(in)
			in[(v*37)%n] = 1
		case 2:
			for i := n / 2; i < n; i++ {
				in[i] = 0
				if i%2 == 1 {
					in[i] = math.Copysign(0, -1)
				}
			}
		}
		ins[v] = in
	}
	return ins
}

// TestBatcherMatchesSequential hammers the batcher from many goroutines and
// checks every coalesced result against the sequential reference product
// bit for bit, whatever width its flush ran at: on the shared on-the-fly
// Coulomb matrix and on an unsymmetric Hybrid matrix at half its full
// block footprint.
func TestBatcherMatchesSequential(t *testing.T) {
	pts := pointset.Cube(600, 3, 12)
	cfg := core.Config{Kind: core.DataDriven, Mode: core.Normal, Tol: 1e-6, LeafSize: 50}
	norm, err := core.Build(pts, driftKernel{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mem := norm.Memory()
	cfg.Mode, cfg.StorageBudget = core.Hybrid, (mem.Coupling+mem.Nearfield)/2
	hybrid, err := core.Build(pts, driftKernel{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for name, m := range map[string]*core.Matrix{"coulomb-otf": testMatrix(t), "drift-hybrid50": hybrid} {
		t.Run(name, func(t *testing.T) { batcherMatchesSequential(t, m) })
	}
}

func batcherMatchesSequential(t *testing.T, m *core.Matrix) {
	const vecs, perG = 8, 12
	ins := batcherInputs(m.N, vecs)
	refs := make([][]float64, vecs)
	for v := range ins {
		refs[v] = m.Apply(ins[v])
	}

	s := NewBatcher(m, Config{MaxBatch: 8, FlushWindow: 200 * time.Microsecond})
	defer s.Close()

	workers := runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}
	errCh := make(chan error, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < perG; r++ {
				v := (g + r) % vecs
				y, err := s.Apply(context.Background(), ins[v])
				if err != nil {
					errCh <- err
					return
				}
				for i, want := range refs[v] {
					if math.Float64bits(y[i]) != math.Float64bits(want) {
						errCh <- fmt.Errorf("input %d: batched result differs from sequential at %d: %v vs %v", v, i, y[i], want)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}

	st := s.Stats()
	if st.Served != int64(workers*perG) {
		t.Fatalf("served %d, want %d", st.Served, workers*perG)
	}
	if st.Submitted != st.Served {
		t.Fatalf("submitted %d != served %d with no drops", st.Submitted, st.Served)
	}
	if st.Batches == 0 || st.Batches > st.Served {
		t.Fatalf("implausible batch count %d for %d requests", st.Batches, st.Served)
	}
	if st.BatchOccupancy.Count != st.Batches {
		t.Fatalf("occupancy count %d != batches %d", st.BatchOccupancy.Count, st.Batches)
	}
	if st.QueueWaitUS.Count != st.Served || st.FlushUS.Count != st.Batches {
		t.Fatalf("histogram counts inconsistent: %+v", st)
	}
	if st.QueueWaitUS.P50 > st.QueueWaitUS.P99 {
		t.Fatalf("p50 %d > p99 %d", st.QueueWaitUS.P50, st.QueueWaitUS.P99)
	}
}

// TestDeadlineDroppedBeforePack parks a request behind a long flush window,
// lets its deadline expire, and checks it is dropped at pack time: counted
// as a deadline drop, never served.
func TestDeadlineDroppedBeforePack(t *testing.T) {
	m := testMatrix(t)
	s := NewBatcher(m, Config{MaxBatch: 64, FlushWindow: 60 * time.Millisecond})
	defer s.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	b := randVec(m.N, 1)
	if _, err := s.Apply(ctx, b); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	// The flush fires well after the deadline; wait for it to account the drop.
	deadline := time.Now().Add(2 * time.Second)
	for {
		st := s.Stats()
		if st.DroppedDeadline == 1 {
			if st.Served != 0 || st.Batches != 0 {
				t.Fatalf("expired request was served: %+v", st)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("deadline drop never recorded: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCancellationDropsFromBatch cancels one of two queued requests before
// the window fires: the batch packs only the live one.
func TestCancellationDropsFromBatch(t *testing.T) {
	m := testMatrix(t)
	s := NewBatcher(m, Config{MaxBatch: 64, FlushWindow: 40 * time.Millisecond})
	defer s.Close()

	ctxDead, cancel := context.WithCancel(context.Background())
	cancel() // canceled before it can ever be packed
	b := randVec(m.N, 2)
	if _, err := s.Apply(ctxDead, b); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
	want := m.Apply(b)
	got, err := s.Apply(context.Background(), b)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxRelDiff(want, got); d > 1e-14 {
		t.Fatalf("live request corrupted by canceled batchmate: reldiff %g", d)
	}
	st := s.Stats()
	if st.DroppedCanceled != 1 || st.Served != 1 {
		t.Fatalf("drops/served = %d/%d, want 1/1 (%+v)", st.DroppedCanceled, st.Served, st)
	}
}

// stallFlushes returns a batcher whose single flush worker blocks until
// release is called, making queue states deterministic.
func stallFlushes(m *core.Matrix, cfg Config) (s *Batcher, release func()) {
	gate := make(chan struct{})
	var once sync.Once
	cfg.Flushers = 1
	s = NewBatcher(m, cfg)
	s.testHookBeforeFlush = func() { <-gate }
	return s, func() { once.Do(func() { close(gate) }) }
}

// fillPipeline stalls the flush worker and fills every stage ahead of the
// queue: one batch in flush, one batch stuck on the worker handoff, and
// QueueLimit requests in the queue. Returns the drain for the in-flight
// requests.
func fillPipeline(t *testing.T, s *Batcher, b []float64) (inFlight *sync.WaitGroup) {
	t.Helper()
	var wg sync.WaitGroup
	// 1 request claimed into a flushing batch + 1 claimed into the next
	// batch (dispatcher blocked handing it to the busy worker) + QueueLimit
	// queued. MaxBatch must be 1.
	for i := 0; i < 2+s.cfg.QueueLimit; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Apply(context.Background(), b); err != nil {
				t.Error(err)
			}
		}()
		// Wait for this request to move past the queue where appropriate so
		// the fill is deterministic: the first two must be claimed by the
		// dispatcher before the queue can hold the rest.
		if i < 2 {
			deadline := time.Now().Add(2 * time.Second)
			for s.Stats().Submitted != int64(i+1) || len(s.submit) != 0 {
				if time.Now().After(deadline) {
					t.Fatal("pipeline fill stalled")
				}
				time.Sleep(100 * time.Microsecond)
			}
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for len(s.submit) != s.cfg.QueueLimit {
		if time.Now().After(deadline) {
			t.Fatalf("queue never filled: depth %d want %d", len(s.submit), s.cfg.QueueLimit)
		}
		time.Sleep(100 * time.Microsecond)
	}
	return &wg
}

// TestQueueFullFastFail fills the pipeline and checks the fast-fail
// backpressure mode rejects the overflow request with ErrQueueFull.
func TestQueueFullFastFail(t *testing.T) {
	m := testMatrix(t)
	s, release := stallFlushes(m, Config{MaxBatch: 1, FlushWindow: time.Hour, QueueLimit: 2})
	defer s.Close()
	b := randVec(m.N, 3)
	wg := fillPipeline(t, s, b)

	if _, err := s.Apply(context.Background(), b); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	if st := s.Stats(); st.DroppedQueueFull != 1 || st.QueueDepth != s.cfg.QueueLimit {
		t.Fatalf("queue-full stats wrong: %+v", st)
	}
	// The rejected request never entered the pending gauge; the stalled
	// pipeline holds every admitted one.
	if st := s.Stats(); st.Pending != int64(2+s.cfg.QueueLimit) {
		t.Fatalf("pending %d while stalled, want %d", st.Pending, 2+s.cfg.QueueLimit)
	}
	release()
	wg.Wait()
	if st := s.Stats(); st.Served != int64(2+s.cfg.QueueLimit) {
		t.Fatalf("served %d after release, want %d", st.Served, 2+s.cfg.QueueLimit)
	}
	if st := s.Stats(); st.Pending != 0 {
		t.Fatalf("pending %d after drain, want 0", st.Pending)
	}
}

// TestQueueFullBlocking checks the blocking backpressure mode: a caller at
// QueueLimit waits (honoring its context) instead of failing, and proceeds
// once the pipeline drains.
func TestQueueFullBlocking(t *testing.T) {
	m := testMatrix(t)
	s, release := stallFlushes(m, Config{MaxBatch: 1, FlushWindow: time.Hour, QueueLimit: 2, Block: true})
	defer s.Close()
	b := randVec(m.N, 4)
	wg := fillPipeline(t, s, b)

	// A blocking Apply with a deadline gives up with ctx.Err while stalled.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := s.Apply(ctx, b); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("blocked apply err = %v, want DeadlineExceeded", err)
	}
	if st := s.Stats(); st.DroppedDeadline != 1 || st.DroppedQueueFull != 0 {
		t.Fatalf("blocking mode must not count queue-full drops: %+v", st)
	}

	// Without a deadline it blocks until the stall lifts, then succeeds.
	done := make(chan error, 1)
	go func() {
		_, err := s.Apply(context.Background(), b)
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("blocking apply returned early: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	release()
	wg.Wait()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestCloseDrains stalls the pipeline with queued requests, closes, and
// checks every admitted request is answered before Close returns and later
// calls fail fast with ErrClosed.
func TestCloseDrains(t *testing.T) {
	m := testMatrix(t)
	s, release := stallFlushes(m, Config{MaxBatch: 2, FlushWindow: time.Hour, QueueLimit: 8})
	b := randVec(m.N, 5)
	want := m.Apply(b)

	const k = 6
	results := make(chan result, k)
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			y, err := s.Apply(context.Background(), b)
			results <- result{y: y, err: err}
		}()
	}
	deadline := time.Now().Add(2 * time.Second)
	for s.Stats().Submitted != k {
		if time.Now().After(deadline) {
			t.Fatal("submissions stalled")
		}
		time.Sleep(100 * time.Microsecond)
	}

	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while flushes were stalled")
	case <-time.After(20 * time.Millisecond):
	}
	release()
	<-closed
	wg.Wait()
	close(results)
	served := 0
	for r := range results {
		if r.err != nil {
			t.Fatalf("admitted request dropped by Close: %v", r.err)
		}
		if d := maxRelDiff(want, r.y); d > 1e-14 {
			t.Fatalf("drained result diverges: reldiff %g", d)
		}
		served++
	}
	if served != k {
		t.Fatalf("drained %d results, want %d", served, k)
	}
	if _, err := s.Apply(context.Background(), b); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close err = %v, want ErrClosed", err)
	}
	if st := s.Stats(); st.Served != k || st.DroppedClosed != 1 {
		t.Fatalf("post-close stats wrong: %+v", st)
	}
	s.Close() // idempotent
}

// TestApplyLengthMismatch rejects wrong-length inputs without touching the
// queue.
func TestApplyLengthMismatch(t *testing.T) {
	m := testMatrix(t)
	s := NewBatcher(m, Config{})
	defer s.Close()
	if _, err := s.Apply(context.Background(), make([]float64, m.N-1)); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if st := s.Stats(); st.Submitted != 0 {
		t.Fatalf("rejected request was counted: %+v", st)
	}
}

// TestHistQuantiles exercises the log₂ histogram directly.
func TestHistQuantiles(t *testing.T) {
	var h hist
	for i := 0; i < 99; i++ {
		h.observe(3) // bucket [2,4)
	}
	h.observe(1000) // bucket [512,1024)
	s := h.snapshot()
	if s.Count != 100 || s.Max != 1000 {
		t.Fatalf("count/max = %d/%d", s.Count, s.Max)
	}
	if s.P50 != 4 {
		t.Fatalf("p50 = %d, want 4 (upper bound of [2,4))", s.P50)
	}
	if s.P99 != 4 || quantile(&[32]int64{}, 0, 0.5) != 0 {
		t.Fatalf("p99 = %d", s.P99)
	}
	h2 := hist{}
	h2.observe(0)
	if got := h2.snapshot().P50; got != 2 {
		t.Fatalf("zero-value observation p50 = %d, want 2", got)
	}
}

// TestDeadlineExpiresBetweenPackAndFlush covers the window the deadline
// semantics doc promises is safe: a request whose batch has already been
// handed to a flush worker, whose deadline expires while the worker is
// stalled ahead of packing. The request must be dropped at pack time and
// counted in dropped_deadline exactly once, and the flush must still
// complete for its batch-mates.
func TestDeadlineExpiresBetweenPackAndFlush(t *testing.T) {
	m := testMatrix(t)
	s, release := stallFlushes(m, Config{MaxBatch: 2, FlushWindow: time.Hour})
	defer s.Close()
	b := randVec(m.N, 6)
	want := m.Apply(b)

	// Request 1: short deadline. Request 2: no deadline, same batch.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	expiredErr := make(chan error, 1)
	go func() {
		_, err := s.Apply(ctx, b)
		expiredErr <- err
	}()
	type liveRes struct {
		y   []float64
		err error
	}
	liveCh := make(chan liveRes, 1)
	go func() {
		y, err := s.Apply(context.Background(), b)
		liveCh <- liveRes{y, err}
	}()

	// The caller observes its deadline while the batch sits stalled in the
	// flush worker; only then is the worker released, so the expiry is
	// guaranteed to land between pack and flush.
	if err := <-expiredErr; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired apply err = %v, want DeadlineExceeded", err)
	}
	release()

	res := <-liveCh
	if res.err != nil {
		t.Fatalf("batch-mate failed: %v", res.err)
	}
	if d := maxRelDiff(want, res.y); d > 1e-14 {
		t.Fatalf("batch-mate result corrupted: reldiff %g", d)
	}

	// The drop is accounted exactly once, after the flush drains.
	deadline := time.Now().Add(2 * time.Second)
	for {
		st := s.Stats()
		if st.Pending == 0 {
			if st.DroppedDeadline != 1 || st.Served != 1 || st.Batches != 1 || st.Submitted != 2 {
				t.Fatalf("pack-window drop accounting wrong: %+v", st)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pipeline never drained: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStatsCountBeforeAnswer checks that a request's flush is already
// counted when its caller sees the answer: a Stats snapshot taken right
// after Apply returns must include it in Served and Batches, for
// single-request and two-request flushes alike. Answering first and
// counting after lets a snapshot read Pending 0 with Served still 0.
func TestStatsCountBeforeAnswer(t *testing.T) {
	m := testMatrix(t)
	b := randVec(m.N, 7)
	const rounds = 20

	single := NewBatcher(m, Config{MaxBatch: 8, FlushWindow: 50 * time.Microsecond})
	defer single.Close()
	for r := int64(1); r <= rounds; r++ {
		if _, err := single.Apply(context.Background(), b); err != nil {
			t.Fatal(err)
		}
		if st := single.Stats(); st.Served < r || st.Batches < r {
			t.Fatalf("single: answer %d not yet counted: %+v", r, st)
		}
	}

	// MaxBatch 2 with an hour-long window: every flush packs both requests
	// of a round into one batched apply.
	batched := NewBatcher(m, Config{MaxBatch: 2, FlushWindow: time.Hour})
	defer batched.Close()
	for r := int64(1); r <= rounds; r++ {
		snaps := make(chan Stats, 2)
		errs := make(chan error, 2)
		for range 2 {
			go func() {
				_, err := batched.Apply(context.Background(), b)
				errs <- err
				snaps <- batched.Stats()
			}()
		}
		for range 2 {
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
			if st := <-snaps; st.Served < 2*r || st.Batches < r {
				t.Fatalf("batched: round %d not yet counted: %+v", r, st)
			}
		}
	}
}

// TestStatsPendingNeverNegative checks that Pending counts a request from
// before it can be answered: callers block on a one-slot queue (so each
// admission hands a parked caller's request straight to the dispatcher)
// over a matrix small enough that a flush answers within microseconds,
// while a poller reads Stats throughout. Counting admission after the
// enqueue lets a flush worker answer first, and a snapshot then reads
// Pending -1.
func TestStatsPendingNeverNegative(t *testing.T) {
	m, err := core.Build(pointset.Cube(8, 3, 3), kernel.Coulomb{},
		core.Config{Kind: core.DataDriven, Mode: core.OnTheFly, Tol: 1e-6, LeafSize: 50})
	if err != nil {
		t.Fatal(err)
	}
	s := NewBatcher(m, Config{MaxBatch: 1, QueueLimit: 1, Block: true, Flushers: 4})
	defer s.Close()
	b := randVec(m.N, 5)
	var stop atomic.Bool
	var minPending atomic.Int64
	polled := make(chan struct{})
	go func() {
		defer close(polled)
		for !stop.Load() {
			if p := s.Stats().Pending; p < minPending.Load() {
				minPending.Store(p)
			}
		}
	}()
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 10000 {
				if minPending.Load() < 0 {
					return
				}
				if _, err := s.Apply(context.Background(), b); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	stop.Store(true)
	<-polled
	if p := minPending.Load(); p < 0 {
		t.Fatalf("a Stats snapshot read Pending %d", p)
	}
}
