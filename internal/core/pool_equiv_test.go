package core

import (
	"bytes"
	"sync"
	"testing"

	"h2ds/internal/kernel"
	"h2ds/internal/mat"
	"h2ds/internal/pointset"
)

// seedPaths temporarily reverts m to the seed hot path — stores rebuilt
// from the map-backed build-phase store (seedStore), every block
// re-assembled into its own allocation — and returns a workspace for the
// level-synchronous reference sweeps (fork-join runtime). The returned
// restore func reinstates the built stores.
func seedPaths(t *testing.T, m *Matrix) (*Workspace, func()) {
	t.Helper()
	coup, near := m.coup, m.near
	m.coup, m.near = seedAssembled(m, false), seedAssembled(m, true)
	return m.NewWorkspace(), func() { m.coup, m.near = coup, near }
}

// seedAssembled re-assembles every block of m's coupling (near false) or
// nearfield store with kernel.NewBlock, Puts them in parallel into a
// seedStore, and freezes it.
func seedAssembled(m *Matrix, near bool) *BlockStore {
	src := m.store(near)
	s := newSeedStore(src.directed)
	var wg sync.WaitGroup
	for i := 0; i+1 < len(src.rowPtr); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := src.rowPtr[i]; k < src.rowPtr[i+1]; k++ {
				j := int(src.colIdx[k])
				x, rows, y, cols := m.blockPoints(near, i, j)
				s.Put(i, j, kernel.NewBlock(m.Kern, x, rows, y, cols))
			}
		}(i)
	}
	wg.Wait()
	return s.freeze()
}

// TestPooledCompactedMatchesSeedBitwise checks the full modernized hot path
// — task-graph scheduler on the persistent worker pool plus CSR-compacted
// block stores — against the seed configuration (level-synchronous
// fork-join sweeps, map-backed frozen stores) for
// bitwise-identical results on the apply, transpose-apply, and batched
// paths, for a symmetric kernel (shared bases, triangular stores) and an
// unsymmetric one (separate bases, directed stores).
func TestPooledCompactedMatchesSeedBitwise(t *testing.T) {
	pts := pointset.Cube(2000, 3, 301)
	b := randVec(2000, 302)
	kernels := []kernel.Pairwise{kernel.Coulomb{}, drift3()}
	for _, k := range kernels {
		t.Run(k.Name(), func(t *testing.T) {
			m, err := Build(pts, k, Config{Kind: DataDriven, Mode: Normal, Tol: 1e-6, Workers: 3, LeafSize: 60})
			if err != nil {
				t.Fatal(err)
			}
			if m.coup.rowPtr == nil || m.near.rowPtr == nil {
				t.Fatal("stores not compacted after Build")
			}

			wsNew := m.NewWorkspace()
			defer wsNew.Close()
			yNew := make([]float64, m.N)
			ytNew := make([]float64, m.N)
			m.ApplyToWith(wsNew, yNew, b)
			m.ApplyTransposeToWith(wsNew, ytNew, b)
			BNew := mat.NewDense(m.N, 3)
			for i := 0; i < m.N; i++ {
				for j := 0; j < 3; j++ {
					BNew.Set(i, j, b[(i+j*7)%m.N])
				}
			}
			YNew := mat.NewDense(0, 0)
			m.ApplyBatchToWith(wsNew, YNew, BNew)

			wsSeed, restore := seedPaths(t, m)
			defer restore()
			ySeed := make([]float64, m.N)
			ytSeed := make([]float64, m.N)
			refApplyTo(m, wsSeed, ySeed, b, false, false)
			refApplyTo(m, wsSeed, ytSeed, b, true, false)
			YSeed := mat.NewDense(0, 0)
			refApplyBatchTo(m, wsSeed, YSeed, BNew, false)

			for i := range yNew {
				if yNew[i] != ySeed[i] {
					t.Fatalf("apply differs at %d: pooled %g vs seed %g", i, yNew[i], ySeed[i])
				}
				if ytNew[i] != ytSeed[i] {
					t.Fatalf("transpose apply differs at %d: pooled %g vs seed %g", i, ytNew[i], ytSeed[i])
				}
			}
			for i := range YNew.Data {
				if YNew.Data[i] != YSeed.Data[i] {
					t.Fatalf("batch apply differs at flat %d: pooled %g vs seed %g", i, YNew.Data[i], YSeed.Data[i])
				}
			}
		})
	}
}

// TestConcurrentApplyToWithPools drives concurrent ApplyToWith calls, each
// goroutine cycling workspaces through the matrix's internal pool — the
// steady-state pattern of the serve layer, where every checked-out workspace
// carries its own persistent worker pool. Run under -race this covers
// pool handoff between goroutines (sync.Pool migration) and the lock-free
// frozen CSR reads.
func TestConcurrentApplyToWithPools(t *testing.T) {
	pts := pointset.Cube(1200, 3, 303)
	m, err := Build(pts, kernel.Coulomb{}, Config{Kind: DataDriven, Mode: Normal, Tol: 1e-5, Workers: 2, LeafSize: 50})
	if err != nil {
		t.Fatal(err)
	}
	b := randVec(m.N, 304)
	ref := make([]float64, m.N)
	m.ApplyToWith(m.NewWorkspace(), ref, b)

	const goroutines = 6
	var wg sync.WaitGroup
	errCh := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			y := make([]float64, m.N)
			for it := 0; it < 8; it++ {
				ws := m.getWorkspace()
				m.ApplyToWith(ws, y, b)
				m.putWorkspace(ws)
				for i := range y {
					if y[i] != ref[i] {
						errCh <- "concurrent ApplyToWith diverged from reference"
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for msg := range errCh {
		t.Fatal(msg)
	}
}

// TestSerializeRoundTripCompacted checks that deserialization lands back in
// the compacted representation with identical accounting and bitwise-equal
// products.
func TestSerializeRoundTripCompacted(t *testing.T) {
	pts := pointset.Cube(1500, 3, 305)
	m, err := Build(pts, kernel.Coulomb{}, Config{Kind: DataDriven, Mode: Normal, Tol: 1e-6, LeafSize: 60})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := Read(&buf, kernel.Coulomb{})
	if err != nil {
		t.Fatal(err)
	}
	if m2.coup.rowPtr == nil || m2.near.rowPtr == nil {
		t.Fatal("loaded stores not compacted")
	}
	if m2.coup.Len() != m.coup.Len() || m2.near.Len() != m.near.Len() {
		t.Fatalf("block counts differ after round trip: coup %d vs %d, near %d vs %d",
			m2.coup.Len(), m.coup.Len(), m2.near.Len(), m.near.Len())
	}
	if m2.coup.Bytes() != m.coup.Bytes() || m2.near.Bytes() != m.near.Bytes() {
		t.Fatal("memoized byte accounting differs after round trip")
	}
	b := randVec(m.N, 306)
	y1, y2 := m.Apply(b), m2.Apply(b)
	for i := range y1 {
		if y1[i] != y2[i] {
			t.Fatalf("loaded compacted matrix differs at %d: %g vs %g", i, y1[i], y2[i])
		}
	}
}

// TestWorkspaceCloseFallback checks a closed workspace stays usable: the
// next apply recreates its pool and produces bitwise-identical results.
func TestWorkspaceCloseFallback(t *testing.T) {
	pts := pointset.Cube(900, 3, 307)
	m, err := Build(pts, kernel.Coulomb{}, Config{Kind: DataDriven, Mode: Normal, Tol: 1e-5, Workers: 3, LeafSize: 50})
	if err != nil {
		t.Fatal(err)
	}
	b := randVec(m.N, 308)
	ws := m.NewWorkspace()
	y1 := make([]float64, m.N)
	m.ApplyToWith(ws, y1, b)
	ws.Close()
	ws.Close() // idempotent
	y2 := make([]float64, m.N)
	m.ApplyToWith(ws, y2, b)
	for i := range y1 {
		if y1[i] != y2[i] {
			t.Fatalf("closed-workspace apply differs at %d", i)
		}
	}
}

// TestSweepStatsAccumulate checks the per-stage timing counters move with
// every apply variant.
func TestSweepStatsAccumulate(t *testing.T) {
	pts := pointset.Cube(800, 3, 309)
	m, err := Build(pts, kernel.Coulomb{}, Config{Kind: DataDriven, Mode: Normal, Tol: 1e-5, LeafSize: 50})
	if err != nil {
		t.Fatal(err)
	}
	b := randVec(m.N, 310)
	m.Apply(b)
	m.ApplyTranspose(b)
	B := mat.NewDense(m.N, 2)
	copy(B.Data[:m.N], b)
	m.ApplyBatchTo(mat.NewDense(0, 0), B)
	st := m.SweepStats()
	if st.Applies != 3 {
		t.Fatalf("Applies = %d, want 3", st.Applies)
	}
	if st.UpNS < 0 || st.CouplingNS <= 0 || st.DownNS < 0 || st.LeafNS <= 0 {
		t.Fatalf("stage timings not accumulating: %+v", st)
	}
}
