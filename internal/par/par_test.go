package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestForCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 100} {
		p := NewPool(workers)
		for _, n := range []int{0, 1, 7, 100, 1000} {
			hits := make([]int32, n)
			p.For(n, func(i int) {
				atomic.AddInt32(&hits[i], 1)
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d hit %d times", workers, n, i, h)
				}
			}
		}
		p.Close()
	}
}

// TestForSingleWorkerIsSequential: a one-worker pool and the nil pool both
// run the loop inline, in order, as worker 0.
func TestForSingleWorkerIsSequential(t *testing.T) {
	one := NewPool(1)
	defer one.Close()
	for name, p := range map[string]*Pool{"one worker": one, "nil": nil} {
		if p.Workers() != 1 {
			t.Fatalf("%s pool: Workers() = %d, want 1", name, p.Workers())
		}
		order := make([]int, 0, 50)
		p.ForWorker(50, func(w, i int) {
			if w != 0 {
				t.Fatalf("%s pool: iteration %d ran on worker %d", name, i, w)
			}
			order = append(order, i)
		})
		if len(order) != 50 {
			t.Fatalf("%s pool: ran %d iterations, want 50", name, len(order))
		}
		for i, v := range order {
			if v != i {
				t.Fatalf("%s pool: sequential order violated at %d: %d", name, i, v)
			}
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
	p := NewPool(16)
	defer p.Close()
	var count int32
	p.For(3, func(i int) { atomic.AddInt32(&count, 1) })
	if count != 3 {
		t.Fatalf("count %d", count)
	}
}
