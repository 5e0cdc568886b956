package core

import (
	"bytes"
	"math"
	"runtime"
	"testing"

	"h2ds/internal/kernel"
	"h2ds/internal/mat"
	"h2ds/internal/pointset"
)

func buildBoth(t *testing.T, pts *pointset.Points, k kernel.Pairwise, leaf int) map[MemoryMode]*Matrix {
	t.Helper()
	out := map[MemoryMode]*Matrix{}
	for _, mode := range []MemoryMode{Normal, OnTheFly} {
		m, err := Build(pts, k, Config{Kind: DataDriven, Mode: mode, Tol: 1e-6, LeafSize: leaf})
		if err != nil {
			t.Fatal(err)
		}
		out[mode] = m
	}
	return out
}

func TestApplyToWithMatchesApplyTo(t *testing.T) {
	pts := pointset.Cube(1500, 3, 200)
	b := randVec(1500, 201)
	for mode, m := range buildBoth(t, pts, kernel.Coulomb{}, 70) {
		want := m.Apply(b)
		ws := m.NewWorkspace()
		got := make([]float64, m.N)
		for rep := 0; rep < 3; rep++ { // reuse must not degrade results
			m.ApplyToWith(ws, got, b)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("mode %v rep %d: workspace path differs at %d: %g vs %g", mode, rep, i, got[i], want[i])
				}
			}
		}
		m.ApplyTransposeToWith(ws, got, b)
		wantT := m.ApplyTranspose(b)
		for i := range wantT {
			if got[i] != wantT[i] {
				t.Fatalf("mode %v: workspace transpose differs at %d", mode, i)
			}
		}
	}
}

func TestApplyToAliasSafe(t *testing.T) {
	// The doc contract: y and b may alias. ApplyTo(v, v) must equal Apply(b).
	pts := pointset.Cube(1200, 3, 210)
	b := randVec(1200, 211)
	for mode, m := range buildBoth(t, pts, kernel.Coulomb{}, 60) {
		want := m.Apply(b)
		v := append([]float64(nil), b...)
		m.ApplyTo(v, v)
		for i := range want {
			if v[i] != want[i] {
				t.Fatalf("mode %v: aliased ApplyTo differs at %d: %g vs %g", mode, i, v[i], want[i])
			}
		}
		wantT := m.ApplyTranspose(b)
		v = append([]float64(nil), b...)
		m.ApplyTransposeTo(v, v)
		for i := range wantT {
			if v[i] != wantT[i] {
				t.Fatalf("mode %v: aliased ApplyTransposeTo differs at %d", mode, i)
			}
		}
		// Batch: Y and B may be the same matrix.
		const k = 3
		bm := mat.NewDense(1200, k)
		for j := 0; j < k; j++ {
			col := randVec(1200, int64(212+j))
			for i := 0; i < 1200; i++ {
				bm.Set(i, j, col[i])
			}
		}
		wantB := m.ApplyBatch(bm)
		m.ApplyBatchTo(bm, bm)
		for i, v := range wantB.Data {
			if bm.Data[i] != v {
				t.Fatalf("mode %v: aliased ApplyBatchTo differs at flat index %d", mode, i)
			}
		}
	}
}

func TestApplyDeterministicAcrossWorkers(t *testing.T) {
	// The matvec promises results independent of the worker count: each
	// output slot is written by exactly one worker in a fixed order, so the
	// outputs must be bitwise identical for any Workers setting.
	pts := pointset.Cube(2000, 3, 220)
	b := randVec(2000, 221)
	counts := []int{1, 4, runtime.GOMAXPROCS(0)}
	for mode, m := range buildBoth(t, pts, kernel.Coulomb{}, 60) {
		var ref, refT []float64
		for _, w := range counts {
			m.Cfg.Workers = w
			y := m.Apply(b)
			yt := m.ApplyTranspose(b)
			if ref == nil {
				ref, refT = y, yt
				continue
			}
			for i := range ref {
				if y[i] != ref[i] {
					t.Fatalf("mode %v: Apply differs bitwise at %d with workers=%d: %x vs %x",
						mode, i, w, math.Float64bits(y[i]), math.Float64bits(ref[i]))
				}
				if yt[i] != refT[i] {
					t.Fatalf("mode %v: ApplyTranspose differs bitwise at %d with workers=%d", mode, i, w)
				}
			}
		}
	}
}

func TestApplyBatchToMatchesSequentialTightly(t *testing.T) {
	// The batched sweeps use GEMM kernels whose per-element summation order
	// mirrors the vector kernels, so each batch column must agree with the
	// sequential product to ~1 ulp (acceptance bound: 1e-14 relative).
	pts := pointset.Cube(2000, 3, 230)
	const k = 8
	for mode, m := range buildBoth(t, pts, kernel.Coulomb{}, 70) {
		bm := mat.NewDense(2000, k)
		for j := 0; j < k; j++ {
			col := randVec(2000, int64(231+j))
			for i := 0; i < 2000; i++ {
				bm.Set(i, j, col[i])
			}
		}
		y := m.ApplyBatch(bm)
		for j := 0; j < k; j++ {
			col := make([]float64, 2000)
			for i := range col {
				col[i] = bm.At(i, j)
			}
			want := m.Apply(col)
			for i := range want {
				if d := math.Abs(y.At(i, j) - want[i]); d > 1e-14*(1+math.Abs(want[i])) {
					t.Fatalf("mode %v: batch column %d differs at %d beyond 1e-14: %g vs %g",
						mode, j, i, y.At(i, j), want[i])
				}
			}
		}
	}
}

func TestApplyBatchWidthChangesReuseWorkspace(t *testing.T) {
	pts := pointset.Cube(900, 3, 240)
	m, err := Build(pts, kernel.Coulomb{}, Config{Kind: DataDriven, Mode: OnTheFly, Tol: 1e-5, LeafSize: 60})
	if err != nil {
		t.Fatal(err)
	}
	ws := m.NewWorkspace()
	for _, k := range []int{4, 1, 8, 2} {
		bm := mat.NewDense(900, k)
		for j := 0; j < k; j++ {
			col := randVec(900, int64(241+j))
			for i := 0; i < 900; i++ {
				bm.Set(i, j, col[i])
			}
		}
		y := mat.NewDense(0, 0)
		m.ApplyBatchToWith(ws, y, bm)
		for j := 0; j < k; j++ {
			col := make([]float64, 900)
			for i := range col {
				col[i] = bm.At(i, j)
			}
			want := m.Apply(col)
			for i := range want {
				if d := math.Abs(y.At(i, j) - want[i]); d > 1e-12*(1+math.Abs(want[i])) {
					t.Fatalf("k=%d: column %d differs at %d", k, j, i)
				}
			}
		}
	}
}

func TestSerializeRoundTripBatchEquivalence(t *testing.T) {
	// A deserialized matrix re-assembles its stored blocks from the kernel,
	// so the batch product must reproduce the original bitwise.
	pts := pointset.Cube(1200, 3, 250)
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
	const k = 5
	bm := mat.NewDense(1200, k)
	for j := 0; j < k; j++ {
		col := randVec(1200, int64(251+j))
		for i := 0; i < 1200; i++ {
			bm.Set(i, j, col[i])
		}
	}
	y1 := m.ApplyBatch(bm)
	y2 := m2.ApplyBatch(bm)
	for i, v := range y1.Data {
		if y2.Data[i] != v {
			t.Fatalf("deserialized batch product differs at flat index %d: %g vs %g", i, y2.Data[i], v)
		}
	}
}

func TestApplyToWithZeroAllocSteadyState(t *testing.T) {
	// With a caller-owned workspace, the steady-state vector, transpose and
	// batch applies must not touch the allocator at all — run serially at
	// one worker or drained on the persistent pool at two.
	pts := pointset.Cube(1000, 3, 260)
	b := randVec(1000, 261)
	B := mat.NewDenseData(1000, 3, randVec(3000, 262))
	for _, workers := range []int{1, 2} {
		for _, mode := range []MemoryMode{Normal, OnTheFly, Hybrid} {
			cfg := Config{Kind: DataDriven, Mode: mode, Tol: 1e-5, LeafSize: 60, Workers: workers}
			if mode == Hybrid {
				cfg.StorageBudget = 256 << 10 // some blocks stored, the rest evaluated
			}
			m, err := Build(pts, kernel.Coulomb{}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			y := make([]float64, 1000)
			Y := mat.NewDense(0, 0)
			ws := m.NewWorkspace()
			for _, c := range []struct {
				name  string
				apply func()
			}{
				{"ApplyToWith", func() { m.ApplyToWith(ws, y, b) }},
				{"ApplyTransposeToWith", func() { m.ApplyTransposeToWith(ws, y, b) }},
				{"ApplyBatchToWith", func() { m.ApplyBatchToWith(ws, Y, B) }},
			} {
				// Warm-up: sizes the scheduler queue, batch slabs and the
				// per-worker OTF scratch tiles.
				c.apply()
				c.apply()
				if allocs := testing.AllocsPerRun(10, c.apply); allocs != 0 {
					t.Fatalf("workers=%d mode %v: %s allocates %.1f objects/op in steady state", workers, mode, c.name, allocs)
				}
			}
			ws.Close()
		}
	}
}

func TestBlockJacobiPooledBuffersStayCorrect(t *testing.T) {
	pts := pointset.Cube(800, 3, 270)
	m, err := Build(pts, kernel.Gaussian{Scale: 0.5}, Config{Kind: DataDriven, Mode: Normal, Tol: 1e-6, LeafSize: 50, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	bj, err := m.BlockJacobi(1.0)
	if err != nil {
		t.Fatal(err)
	}
	b := randVec(800, 271)
	y1 := make([]float64, 800)
	bj.ApplyTo(y1, b)
	// Aliased application must match.
	v := append([]float64(nil), b...)
	bj.ApplyTo(v, v)
	for i := range y1 {
		if v[i] != y1[i] {
			t.Fatalf("aliased BlockJacobi.ApplyTo differs at %d", i)
		}
	}
	// Interleave with matvecs drawing from the same pool.
	yv := m.Apply(b)
	y2 := make([]float64, 800)
	bj.ApplyTo(y2, b)
	for i := range y1 {
		if y2[i] != y1[i] {
			t.Fatalf("pool interleaving corrupted BlockJacobi result at %d", i)
		}
	}
	_ = yv
}

func TestWorkspaceWrongMatrixPanics(t *testing.T) {
	a, err := Build(pointset.Cube(300, 3, 280), kernel.Coulomb{}, Config{Tol: 1e-4, LeafSize: 50})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(pointset.Cube(300, 3, 281), kernel.Coulomb{}, Config{Tol: 1e-4, LeafSize: 50})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for foreign workspace")
		}
	}()
	ws := a.NewWorkspace()
	v := make([]float64, 300)
	b.ApplyToWith(ws, v, v)
}

func TestMemoryCountsWorkspace(t *testing.T) {
	pts := pointset.Cube(1000, 3, 290)
	m, err := Build(pts, kernel.Coulomb{}, Config{Kind: DataDriven, Mode: Normal, Tol: 1e-6, LeafSize: 60})
	if err != nil {
		t.Fatal(err)
	}
	mem := m.Memory()
	if mem.Workspace <= 0 {
		t.Fatalf("MemoryStats must count the pooled workspace slabs: %+v", mem)
	}
	ws := m.NewWorkspace()
	if ws.Bytes() != mem.Workspace {
		t.Fatalf("workspace accounting mismatch: live %d vs stats %d", ws.Bytes(), mem.Workspace)
	}
}

// TestScratchWithinMemoryBound checks the on-the-fly scratch accounting:
// after every vector, transpose and batch apply in OnTheFly and Hybrid mode,
// at one and two workers, each worker's scratch tile — kernel rows, twin
// lanes and gathered coordinate panels — fits MemoryStats.ScratchPerWorker.
// The trees are the edge shapes where a panel or a twin's lanes outgrow the
// block itself: a single leaf, and leaves of one to four points (ranks below
// the panel's d+1 rows), for a symmetric and an unsymmetric kernel.
func TestScratchWithinMemoryBound(t *testing.T) {
	shapes := []struct {
		name    string
		n, leaf int
	}{
		{"single-leaf", 40, 50}, {"leaf1", 24, 1}, {"leaf2", 40, 2}, {"leaf3", 60, 3}, {"leaf4", 90, 4},
	}
	kernels := []kernel.Pairwise{kernel.Coulomb{}, drift3()}
	for _, sh := range shapes {
		for _, k := range kernels {
			for _, mode := range []MemoryMode{OnTheFly, Hybrid} {
				pts := pointset.Cube(sh.n, 3, 77)
				cfg := Config{Kind: DataDriven, Mode: mode, Tol: 1e-6, LeafSize: sh.leaf}
				if mode == Hybrid {
					cfg.StorageBudget = 2 << 10 // a few blocks stored, the rest evaluated
				}
				m, err := Build(pts, k, cfg)
				if err != nil {
					t.Fatal(err)
				}
				bound := m.Memory().ScratchPerWorker
				b := randVec(m.N, 78)
				B := mat.NewDense(m.N, 3)
				for i := range B.Data {
					B.Data[i] = b[i%m.N]
				}
				y, Y := make([]float64, m.N), mat.NewDense(0, 0)
				for _, w := range []int{1, 2} {
					m.Cfg.Workers = w
					ws := m.NewWorkspace()
					for _, apply := range []struct {
						name string
						run  func()
					}{
						{"vector", func() { m.ApplyToWith(ws, y, b) }},
						{"transpose", func() { m.ApplyTransposeToWith(ws, y, b) }},
						{"batch", func() { m.ApplyBatchToWith(ws, Y, B) }},
					} {
						apply.run()
						for s, tile := range ws.scratch {
							if got := int64(cap(tile.Data)) * 8; got > bound {
								t.Fatalf("%s/%s/%v w=%d %s: worker %d scratch %d B > ScratchPerWorker %d B",
									sh.name, k.Name(), mode, w, apply.name, s, got, bound)
							}
						}
					}
					ws.Close()
				}
			}
		}
	}
}
