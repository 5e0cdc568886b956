package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestForCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 100} {
		for _, n := range []int{0, 1, 7, 100, 1000} {
			hits := make([]int32, n)
			For(workers, n, func(i int) {
				atomic.AddInt32(&hits[i], 1)
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d hit %d times", workers, n, i, h)
				}
			}
		}
	}
}

func TestForSingleWorkerIsSequential(t *testing.T) {
	// With one worker the iterations must arrive in order (the fast path).
	order := make([]int, 0, 50)
	For(1, 50, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("sequential order violated at %d: %d", i, v)
		}
	}
}

func TestResolve(t *testing.T) {
	if Resolve(5) != 5 {
		t.Fatal("Resolve(5)")
	}
	if Resolve(0) != runtime.GOMAXPROCS(0) || Resolve(-1) != runtime.GOMAXPROCS(0) {
		t.Fatal("Resolve default")
	}
}

func TestForMoreWorkersThanWork(t *testing.T) {
	var count int32
	For(64, 3, func(i int) { atomic.AddInt32(&count, 1) })
	if count != 3 {
		t.Fatalf("count %d", count)
	}
}
