package registry

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"h2ds/internal/serve"
)

// TestStressConcurrentLifecycle hammers a small registry from many goroutines
// at once: applies race builds, hot-swap rebuilds, deletions, and
// budget-driven evictions on shared names. Run under -race. Invariants
// checked:
//
//   - Apply never panics and never returns a torn result: every successful
//     result matches the sequential reference of one of the name's versions.
//   - Errors are only the documented ones (not-found, not-ready, busy,
//     queue-full, context, batcher-closed).
//   - After quiescing, the registry's memory total respects the budget and
//     all counters are coherent.
func TestStressConcurrentLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	const (
		names    = 3
		clients  = 8
		mutators = 3
		runFor   = 1500 * time.Millisecond
	)

	// Two specs per name (coulomb vs gaussian on the same point cloud), so
	// hot swaps flip between observably different operators.
	specFor := func(i int, alt bool) BuildSpec {
		sp := tinySpec(int64(100 + i))
		sp.N = 300
		if alt {
			sp.Kernel = "gaussian"
		}
		return sp
	}
	nameFor := func(i int) string { return fmt.Sprintf("m%d", i) }

	// Sequential references for both versions of every name.
	refs := make(map[string][][]float64) // name -> [old, new] reference products
	bs := make(map[string][]float64)
	for i := 0; i < names; i++ {
		n := nameFor(i)
		b := randVec(300, int64(7000+i))
		bs[n] = b
		for _, alt := range []bool{false, true} {
			m, err := BuildWithCache(context.Background(), specFor(i, alt).withDefaults(), func(string) {}, nil)
			if err != nil {
				t.Fatal(err)
			}
			refs[n] = append(refs[n], m.Apply(b))
		}
	}

	// Budget sized so roughly two of the three names fit: evictions fire
	// continuously as builds complete.
	probe, err := BuildWithCache(context.Background(), specFor(0, false).withDefaults(), func(string) {}, nil)
	if err != nil {
		t.Fatal(err)
	}
	budget := probe.Memory().Total() * 5 / 2

	r := New(Config{
		Workers:    2,
		QueueDepth: 4,
		MemBudget:  budget,
		SpillDir:   t.TempDir(),
	})
	defer r.Close()

	for i := 0; i < names; i++ {
		if err := r.Create(nameFor(i), specFor(i, false)); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var applies, served atomic.Int64
	var wg sync.WaitGroup
	fail := make(chan string, 1)
	failf := func(format string, args ...any) {
		select {
		case fail <- fmt.Sprintf(format, args...):
		default:
		}
	}

	// Clients: apply to random-ish names, verify against both references.
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			i := c % names
			for {
				select {
				case <-stop:
					return
				default:
				}
				n := nameFor(i)
				i = (i + 1) % names
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				y, err := r.Apply(ctx, n, bs[n])
				cancel()
				applies.Add(1)
				if err != nil {
					switch {
					case errors.Is(err, ErrNotFound), errors.Is(err, ErrNotReady),
						errors.Is(err, ErrQueueFull), errors.Is(err, ErrClosed),
						errors.Is(err, serve.ErrClosed),
						errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
						continue
					default:
						failf("undocumented apply error: %v", err)
						return
					}
				}
				served.Add(1)
				d0 := maxRelDiff(refs[n][0], y)
				d1 := maxRelDiff(refs[n][1], y)
				if d0 > 1e-10 && d1 > 1e-10 {
					failf("torn result on %s: d0=%g d1=%g", n, d0, d1)
					return
				}
			}
		}(c)
	}

	// Mutators: rebuild names with alternating kernels (hot swaps when Ready,
	// plain rebuilds when evicted/failed), and occasionally delete+recreate.
	for mIdx := 0; mIdx < mutators; mIdx++ {
		wg.Add(1)
		go func(mIdx int) {
			defer wg.Done()
			alt, k := false, 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				n := nameFor((mIdx + k) % names)
				k++
				alt = !alt
				if mIdx == 0 && k%7 == 0 {
					// Deletion storm on one mutator only, so the other names
					// keep swapping.
					_ = r.Delete(n)
				}
				err := r.Create(n, specFor((mIdx+k-1)%names, alt))
				if err != nil && !errors.Is(err, ErrBusy) && !errors.Is(err, ErrQueueFull) && !errors.Is(err, ErrClosed) {
					failf("undocumented create error: %v", err)
					return
				}
				time.Sleep(2 * time.Millisecond)
			}
		}(mIdx)
	}

	timer := time.NewTimer(runFor)
	select {
	case msg := <-fail:
		close(stop)
		wg.Wait()
		t.Fatal(msg)
	case <-timer.C:
	}
	close(stop)
	wg.Wait()
	select {
	case msg := <-fail:
		t.Fatal(msg)
	default:
	}

	// Quiesce: ensure every name converges to Ready (recreate any that were
	// deleted/failed mid-storm), then check the invariants.
	deadline := time.Now().Add(60 * time.Second)
	for i := 0; i < names; i++ {
		n := nameFor(i)
		for {
			if time.Now().After(deadline) {
				inf, _ := r.Get(n)
				t.Fatalf("%s never quiesced: %+v", n, inf)
			}
			err := r.Create(n, specFor(i, false))
			if err == nil || errors.Is(err, ErrBusy) {
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				werr := r.WaitReady(ctx, n)
				cancel()
				if werr == nil {
					break
				}
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	st := r.Stats()
	if st.MemBytes > budget {
		// The last builds may still be ripple-evicting; give it a moment.
		deadline := time.Now().Add(10 * time.Second)
		for st.MemBytes > budget && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
			st = r.Stats()
		}
		if st.MemBytes > budget {
			t.Fatalf("memory budget violated after quiesce: %d > %d", st.MemBytes, budget)
		}
	}
	if st.BuildsStarted < st.BuildsSucceeded+st.BuildsFailed {
		t.Fatalf("counter skew: %+v", st)
	}
	if served.Load() == 0 {
		t.Fatal("stress produced no successful applies")
	}
	t.Logf("stress: %d applies (%d served), stats %+v", applies.Load(), served.Load(), st)
}

// TestStressApplyDuringRepeatedSwaps keeps one name under continuous rebuild
// while clients apply nonstop; stronger variant of the single-swap test.
func TestStressApplyDuringRepeatedSwaps(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	r := New(Config{Workers: 1})
	defer r.Close()
	sp := tinySpec(200)
	sp.N = 300
	alt := sp
	alt.Kernel = "gaussian"

	if err := r.Create("spin", sp); err != nil {
		t.Fatal(err)
	}
	if err := r.WaitReady(waitCtx(t), "spin"); err != nil {
		t.Fatal(err)
	}
	m, _ := r.Matrix("spin")
	b := randVec(m.N, 201)
	ref0 := m.Apply(b)
	mAlt, err := BuildWithCache(context.Background(), alt.withDefaults(), func(string) {}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref1 := mAlt.Apply(b)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	fail := make(chan string, 1)
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				y, err := r.Apply(waitCtx(t), "spin", b)
				if err != nil {
					select {
					case fail <- fmt.Sprintf("apply failed during swap storm: %v", err):
					default:
					}
					return
				}
				if maxRelDiff(ref0, y) > 1e-10 && maxRelDiff(ref1, y) > 1e-10 {
					select {
					case fail <- "torn result during swap storm":
					default:
					}
					return
				}
			}
		}()
	}

	swaps := 0
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		use := sp
		if swaps%2 == 0 {
			use = alt
		}
		if err := r.Create("spin", use); err == nil {
			swaps++
		}
		time.Sleep(time.Millisecond)
	}
	// Let the last swap settle before stopping the clients.
	waitIdle := time.Now().Add(30 * time.Second)
	for {
		inf, _ := r.Get("spin")
		if inf.State == StateReady && !inf.Rebuilding {
			break
		}
		if time.Now().After(waitIdle) {
			t.Fatal("swap storm never settled")
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	select {
	case msg := <-fail:
		t.Fatal(msg)
	default:
	}
	if swaps < 2 {
		t.Fatalf("only %d swaps exercised", swaps)
	}
	if st := r.Stats(); st.SwapDrains < int64(swaps)-1 {
		t.Fatalf("swap drains %d for %d swaps", st.SwapDrains, swaps)
	}
}
