package core

import (
	"bytes"
	"fmt"
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

// rhsPanel returns an n-by-k panel of right-hand sides whose columns cycle
// through a random vector, a unit vector, a half-zeroed random vector with
// exact +0 and -0 entries, and a random vector with zeros, +Inf, -Inf and
// NaN entries — the inputs on which skipped zeros and non-finite values
// could tell two summation orders apart. The cycle is offset by k, so a
// one-column panel is the half-zeroed vector and a two-column panel starts
// with the non-finite one.
func rhsPanel(n, k int, seed int64) *mat.Dense {
	B := mat.NewDense(n, k)
	negZero := math.Copysign(0, -1)
	for j := 0; j < k; j++ {
		col := randVec(n, seed+int64(j))
		switch (j + k + 1) % 4 {
		case 1:
			clear(col)
			col[(j*131)%n] = 1
		case 2:
			for i := range col {
				switch {
				case i >= n/2 && i%2 == 0, i%3 == 1:
					col[i] = 0
				case i >= n/2, i%5 == 2:
					col[i] = negZero
				}
			}
		case 3:
			for i := 1; i < n; i += 3 {
				col[i] = 0
			}
			col[n/7], col[3*n/7], col[5*n/7] = math.Inf(1), math.Inf(-1), math.NaN()
		}
		for i := 0; i < n; i++ {
			B.Set(i, j, col[i])
		}
	}
	return B
}

// column returns a copy of column j of a.
func column(a *mat.Dense, j int) []float64 {
	c := make([]float64, a.Rows)
	for i := range c {
		c[i] = a.At(i, j)
	}
	return c
}

// requireBatchColumnsBitwise applies B as one batch through ws (the
// matrix's pool when nil) and fails unless every output column equals the
// vector apply of that input column bit for bit.
func requireBatchColumnsBitwise(t *testing.T, tag string, m *Matrix, ws *Workspace, B *mat.Dense) {
	t.Helper()
	Y := mat.NewDense(0, 0)
	if ws == nil {
		m.ApplyBatchTo(Y, B)
	} else {
		m.ApplyBatchToWith(ws, Y, B)
	}
	for j := 0; j < B.Cols; j++ {
		bitsEqualVec(t, fmt.Sprintf("%s k=%d column %d", tag, B.Cols, j), column(Y, j), m.Apply(column(B, j)))
	}
}

// buildModes builds k over pts in Normal, OnTheFly, and Hybrid at half the
// full block footprint.
func buildModes(t *testing.T, pts *pointset.Points, k kernel.Pairwise, leaf int) map[string]*Matrix {
	t.Helper()
	cfg := Config{Kind: DataDriven, Mode: Normal, Tol: 1e-6, LeafSize: leaf}
	norm, err := Build(pts, k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]*Matrix{"normal": norm}
	cfg.Mode = OnTheFly
	if out["otf"], err = Build(pts, k, cfg); err != nil {
		t.Fatal(err)
	}
	cfg.Mode, cfg.StorageBudget = Hybrid, norm.storedBytesForTest()/2
	if out["hybrid50"], err = Build(pts, k, cfg); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestApplyBatchToMatchesSequentialTightly(t *testing.T) {
	// Every batch column runs the vector primitives, so it must equal the
	// sequential product bit for bit — at every width, in every storage
	// mode, for a symmetric and an unsymmetric kernel, on inputs with exact
	// zeros, -0, ±Inf and NaN.
	pts := pointset.Cube(2000, 3, 230)
	for _, k := range []kernel.Pairwise{kernel.Coulomb{}, drift3()} {
		for mode, m := range buildModes(t, pts, k, 70) {
			for _, width := range []int{1, 2, 3, 5, 8} {
				requireBatchColumnsBitwise(t, k.Name()+"/"+mode, m, nil, rhsPanel(2000, width, 231))
			}
		}
	}
}

func TestApplyBatchWidthChangesReuseWorkspace(t *testing.T) {
	// One workspace reshaped across widths must give every width's bits,
	// and a vector apply between batches must too.
	pts := pointset.Cube(900, 3, 240)
	for _, k := range []kernel.Pairwise{kernel.Coulomb{}, drift3()} {
		m, err := Build(pts, k, Config{Kind: DataDriven, Mode: OnTheFly, Tol: 1e-5, LeafSize: 60})
		if err != nil {
			t.Fatal(err)
		}
		ws := m.NewWorkspace()
		y := make([]float64, m.N)
		for _, width := range []int{5, 1, 8, 2, 3} {
			B := rhsPanel(900, width, 241)
			requireBatchColumnsBitwise(t, k.Name(), m, ws, B)
			b := column(B, 0)
			m.ApplyToWith(ws, y, b)
			bitsEqualVec(t, fmt.Sprintf("%s vector after k=%d", k.Name(), width), y, m.Apply(b))
			m.ApplyTransposeToWith(ws, y, b)
			bitsEqualVec(t, fmt.Sprintf("%s transpose after k=%d", k.Name(), width), y, m.ApplyTranspose(b))
		}
		ws.Close()
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
