package core

import (
	"math"
	"runtime"
	"sync"
	"testing"

	"h2ds/internal/kernel"
	"h2ds/internal/mat"
	"h2ds/internal/pointset"
)

// TestConcurrentApplyStress hammers one shared frozen Matrix with GOMAXPROCS
// goroutines mixing ApplyTo and ApplyBatchTo, in both memory modes, and
// checks every result against a sequential reference. Under -race this
// guards the pooled-workspace path end to end: workspace checkout/return,
// the frozen BlockStore reads, and the per-worker scratch tiles of the
// on-the-fly mode.
func TestConcurrentApplyStress(t *testing.T) {
	pts := pointset.Cube(1500, 3, 17)
	for _, mode := range []MemoryMode{Normal, OnTheFly} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			m, err := Build(pts, kernel.Coulomb{},
				Config{Kind: DataDriven, Mode: mode, Tol: 1e-6, LeafSize: 60})
			if err != nil {
				t.Fatal(err)
			}
			const vecs = 5
			ins := make([][]float64, vecs)
			refs := make([][]float64, vecs)
			ws := m.NewWorkspace()
			for v := range ins {
				ins[v] = randVec(m.N, int64(200+v))
				refs[v] = make([]float64, m.N)
				m.ApplyToWith(ws, refs[v], ins[v])
			}

			check := func(v int, y []float64) bool {
				for i, want := range refs[v] {
					if d := math.Abs(y[i]-want) / (1 + math.Abs(want)); d > 1e-13 {
						return false
					}
				}
				return true
			}

			workers := runtime.GOMAXPROCS(0)
			if workers < 4 {
				workers = 4
			}
			errCh := make(chan string, workers)
			var wg sync.WaitGroup
			for g := 0; g < workers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					y := make([]float64, m.N)
					for it := 0; it < 10; it++ {
						v := (g + it) % vecs
						if it%2 == 0 {
							// Pooled single-vector path.
							m.ApplyTo(y, ins[v])
							if !check(v, y) {
								errCh <- "ApplyTo diverged under concurrency"
								return
							}
							continue
						}
						// Pooled batch path: three columns, distinct vectors.
						k := 3
						B := mat.NewDense(m.N, k)
						cols := make([]int, k)
						for j := 0; j < k; j++ {
							cols[j] = (v + j) % vecs
							for i := 0; i < m.N; i++ {
								B.Set(i, j, ins[cols[j]][i])
							}
						}
						Y := mat.NewDense(m.N, k)
						m.ApplyBatchTo(Y, B)
						for j := 0; j < k; j++ {
							for i := 0; i < m.N; i++ {
								y[i] = Y.At(i, j)
							}
							if !check(cols[j], y) {
								errCh <- "ApplyBatchTo diverged under concurrency"
								return
							}
						}
					}
				}(g)
			}
			wg.Wait()
			select {
			case msg := <-errCh:
				t.Fatal(msg)
			default:
			}
		})
	}
}
