package par

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestPoolForCoversAllIterations(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 7} {
		p := NewPool(workers)
		for _, n := range []int{0, 1, 2, 3, 17, 100, 1000} {
			var hits = make([]atomic.Int32, n)
			p.For(n, func(i int) { hits[i].Add(1) })
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("workers=%d n=%d: iteration %d ran %d times", workers, n, i, got)
				}
			}
		}
		p.Close()
	}
}

func TestPoolWorkerIDsInRange(t *testing.T) {
	const workers, n = 4, 500
	p := NewPool(workers)
	defer p.Close()
	var bad atomic.Int32
	seen := make([]atomic.Int32, workers)
	p.ForWorker(n, func(w, i int) {
		if w < 0 || w >= workers {
			bad.Add(1)
			return
		}
		seen[w].Add(1)
	})
	if bad.Load() != 0 {
		t.Fatalf("%d iterations saw out-of-range worker ids", bad.Load())
	}
	var total int32
	for w := range seen {
		total += seen[w].Load()
	}
	if total != n {
		t.Fatalf("credited %d iterations, want %d", total, n)
	}
}

// TestPoolReuseAcrossPhases drives many back-to-back phases through one pool
// — the matvec pattern (2·depth+2 phases per apply, many applies) — and
// checks every phase completes with the correct sum.
func TestPoolReuseAcrossPhases(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var acc atomic.Int64
	for phase := 0; phase < 500; phase++ {
		n := 1 + phase%97
		acc.Store(0)
		p.For(n, func(i int) { acc.Add(int64(i) + 1) })
		want := int64(n) * int64(n+1) / 2
		if got := acc.Load(); got != want {
			t.Fatalf("phase %d (n=%d): sum %d want %d", phase, n, got, want)
		}
	}
}

// TestPoolSideEffectsVisibleAfterReturn verifies the happens-before edge:
// every write performed inside the loop body is visible to the caller after
// ForWorker returns, through plain (non-atomic) memory.
func TestPoolSideEffectsVisibleAfterReturn(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	buf := make([]int, 10000)
	for rep := 0; rep < 50; rep++ {
		p.For(len(buf), func(i int) { buf[i] = i + rep })
		for i := range buf {
			if buf[i] != i+rep {
				t.Fatalf("rep %d: buf[%d] = %d, stale write", rep, i, buf[i])
			}
		}
	}
}

// TestPoolManyPoolsConcurrently exercises the workspace-checkout pattern:
// several goroutines each own a pool and run phases concurrently (run with
// -race).
func TestPoolManyPoolsConcurrently(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p := NewPool(3)
			defer p.Close()
			local := make([]int, 400)
			for rep := 0; rep < 100; rep++ {
				p.For(len(local), func(i int) { local[i] = g + rep + i })
				if local[0] != g+rep || local[399] != g+rep+399 {
					t.Errorf("goroutine %d rep %d: bad results", g, rep)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestPoolCloseIdempotentAndFinalizer(t *testing.T) {
	p := NewPool(4)
	p.For(10, func(i int) {})
	p.Close()
	p.Close() // idempotent

	// Leaked pools must not leak goroutines: drop the handle and let the
	// finalizer release the helpers.
	before := runtime.NumGoroutine()
	for i := 0; i < 8; i++ {
		q := NewPool(4)
		q.For(4, func(int) {})
		_ = q
	}
	for i := 0; i < 20; i++ {
		runtime.GC()
		runtime.Gosched()
		if runtime.NumGoroutine() <= before+4 {
			return
		}
	}
	t.Fatalf("helper goroutines leaked: %d before, %d after GC", before, runtime.NumGoroutine())
}

// TestPoolFinalizedWithSelfReferencingBody checks that a dropped pool is
// finalized even when its last loop body reaches the pool itself, as a
// workspace's bound drain method does (body → workspace → pool): a finished
// phase's body must not stay reachable from the parked helpers.
func TestPoolFinalizedWithSelfReferencingBody(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 8; i++ {
		owner := &struct{ p *Pool }{NewPool(4)}
		owner.p.For(4, func(int) { _ = owner.p })
	}
	for i := 0; i < 20; i++ {
		runtime.GC()
		runtime.Gosched()
		if runtime.NumGoroutine() <= before+4 {
			return
		}
	}
	t.Fatalf("helper goroutines leaked: %d before, %d after GC", before, runtime.NumGoroutine())
}

func TestPoolResolveSizing(t *testing.T) {
	p := NewPool(0)
	defer p.Close()
	if p.Workers() != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers() = %d, want GOMAXPROCS = %d", p.Workers(), runtime.GOMAXPROCS(0))
	}
	q := NewPool(1)
	defer q.Close()
	ran := false
	q.ForWorker(1, func(w, i int) { ran = w == 0 && i == 0 })
	if !ran {
		t.Fatal("single-worker pool must run inline as worker 0")
	}
}

func BenchmarkPhaseDispatch(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(poolName(workers), func(b *testing.B) {
			p := NewPool(workers)
			defer p.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.ForWorker(64, func(_, _ int) {})
			}
		})
	}
}

func poolName(w int) string { return "pool/w" + string(rune('0'+w)) }

// TestPoolForWorkerDistinctSlots pins the cooperative-drain contract of
// ForWorker(Workers(), fn): fn is invoked exactly once per iteration in
// [0, Workers()), so the iteration index is a distinct slot id even when one
// goroutine claims two iterations — the property drains rely on to index
// per-worker scratch safely.
func TestPoolForWorkerDistinctSlots(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 7} {
		p := NewPool(workers)
		hits := make([]atomic.Int32, p.Workers())
		for rep := 0; rep < 50; rep++ {
			for i := range hits {
				hits[i].Store(0)
			}
			p.ForWorker(p.Workers(), func(_, slot int) {
				if slot < 0 || slot >= p.Workers() {
					t.Errorf("w=%d: slot %d out of range", workers, slot)
					return
				}
				hits[slot].Add(1)
			})
			for i := range hits {
				if hits[i].Load() != 1 {
					t.Fatalf("w=%d rep=%d: slot %d invoked %d times, want 1", workers, rep, i, hits[i].Load())
				}
			}
		}
		p.Close()
	}
}
