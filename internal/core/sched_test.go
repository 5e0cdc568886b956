package core

import (
	"sync"
	"testing"

	"h2ds/internal/kernel"
	"h2ds/internal/mat"
	"h2ds/internal/pointset"
)

// TestTaskGraphInvariants checks the structural properties the scheduler's
// deadlock-freedom argument rests on: one task per (node, stage) slot plus
// one per nearfield pair (i <= j), edge endpoints in range, dependency
// counts consistent with the edge list, every pair task on one y chain per
// endpoint (in-degree 2, or 1 for a diagonal pair), and a non-empty initial
// frontier.
func TestTaskGraphInvariants(t *testing.T) {
	for _, tc := range []struct {
		n, leaf int
	}{
		{40, 50},  // single leaf: the root is the only node
		{130, 50}, // depth 1: root plus one level of leaves
		{1500, 25},
	} {
		m, err := Build(pointset.Cube(tc.n, 3, 401), kernel.Coulomb{},
			Config{Kind: DataDriven, Mode: Normal, Tol: 1e-5, LeafSize: tc.leaf})
		if err != nil {
			t.Fatal(err)
		}
		g := m.schedGraph()
		nN := len(m.Tree.Nodes)
		nPairs := 0
		for _, l := range m.Tree.Leaves {
			for _, j := range m.Tree.Nodes[l].Near {
				if j >= l {
					nPairs++
				}
			}
		}
		if g.total != int32(3*nN+nPairs) || len(g.pairs) != nPairs {
			t.Fatalf("n=%d: total %d (%d pairs) want %d (%d pairs)", tc.n, g.total, len(g.pairs), 3*nN+nPairs, nPairs)
		}
		for p, pr := range g.pairs {
			want := int32(2)
			if pr[0] == pr[1] {
				want = 1
			}
			if c := g.initCnt[3*nN+p]; c != want {
				t.Fatalf("n=%d: pair %v in-degree %d want %d", tc.n, pr, c, want)
			}
		}
		var deps int32
		for id, c := range g.initCnt {
			if c < 0 {
				t.Fatalf("n=%d: negative init count at task %d", tc.n, id)
			}
			deps += c
		}
		if int(deps) != len(g.depList) {
			t.Fatalf("n=%d: Σ initCnt %d != |depList| %d", tc.n, deps, len(g.depList))
		}
		for _, d := range g.depList {
			if d < 0 || d >= g.total {
				t.Fatalf("n=%d: dependent %d out of range", tc.n, d)
			}
		}
		if len(g.ready0) == 0 {
			t.Fatalf("n=%d: empty initial frontier", tc.n)
		}
		zero := 0
		for _, c := range g.initCnt {
			if c == 0 {
				zero++
			}
		}
		if zero != len(g.ready0) {
			t.Fatalf("n=%d: %d zero-dependency tasks but frontier has %d", tc.n, zero, len(g.ready0))
		}
	}
}

// schedRefApply computes the level-synchronous reference results (apply,
// transpose apply, batch apply) — the seed fork-join sweeps the scheduler
// must match bitwise.
func schedRefApply(t *testing.T, m *Matrix, b []float64, B *mat.Dense) (y, yt []float64, Y *mat.Dense) {
	t.Helper()
	return refApply(m, b, false, false), refApply(m, b, true, false), refApplyBatch(m, B, false)
}

// TestScheduledMatchesSeedEdgeShapes runs the barrier-free scheduler over
// degenerate and adversarial tree shapes — a single-leaf tree (root only),
// a depth-1 tree, and a tree whose leaf level is far wider than the worker
// count — at worker counts 1/2/3/7, in Normal, OnTheFly and Hybrid modes, and
// demands bitwise equality with the level-synchronous seed path for the
// apply, transpose, and batched variants.
func TestScheduledMatchesSeedEdgeShapes(t *testing.T) {
	shapes := []struct {
		name    string
		n, leaf int
	}{
		{"single-leaf", 40, 50},
		{"depth-1", 130, 50},
		{"wide-level", 1500, 25},
	}
	for _, sh := range shapes {
		for _, mode := range []MemoryMode{Normal, OnTheFly, Hybrid} {
			t.Run(sh.name+"/"+mode.String(), func(t *testing.T) {
				pts := pointset.Cube(sh.n, 3, 402)
				cfg := Config{Kind: DataDriven, Mode: mode, Tol: 1e-5, LeafSize: sh.leaf}
				if mode == Hybrid {
					cfg.StorageBudget = 64 << 10 // some blocks stored, the rest evaluated
				}
				m, err := Build(pts, kernel.Coulomb{}, cfg)
				if err != nil {
					t.Fatal(err)
				}
				b := randVec(m.N, 403)
				B := mat.NewDense(m.N, 3)
				for i := 0; i < m.N; i++ {
					for j := 0; j < 3; j++ {
						B.Set(i, j, b[(i+j*11)%m.N])
					}
				}
				yRef, ytRef, YRef := schedRefApply(t, m, b, B)

				for _, w := range []int{1, 2, 3, 7} {
					m.Cfg.Workers = w
					ws := m.NewWorkspace()
					y := make([]float64, m.N)
					yt := make([]float64, m.N)
					Y := mat.NewDense(0, 0)
					m.ApplyToWith(ws, y, b)
					m.ApplyTransposeToWith(ws, yt, b)
					m.ApplyBatchToWith(ws, Y, B)
					ws.Close()
					for i := range y {
						if y[i] != yRef[i] {
							t.Fatalf("w=%d apply differs at %d: %g vs %g", w, i, y[i], yRef[i])
						}
						if yt[i] != ytRef[i] {
							t.Fatalf("w=%d transpose differs at %d: %g vs %g", w, i, yt[i], ytRef[i])
						}
					}
					for i := range Y.Data {
						if Y.Data[i] != YRef.Data[i] {
							t.Fatalf("w=%d batch differs at flat %d: %g vs %g", w, i, Y.Data[i], YRef.Data[i])
						}
					}
				}
			})
		}
	}
}

// TestScheduledMatchesSeedUnsymmetric covers the directed-storage transpose
// coupling (the one scheduler stage whose kernel differs most from the
// forward sweep) under an unsymmetric kernel at several worker counts.
func TestScheduledMatchesSeedUnsymmetric(t *testing.T) {
	pts := pointset.Cube(1100, 3, 404)
	m, err := Build(pts, drift3(),
		Config{Kind: DataDriven, Mode: Normal, Tol: 1e-5, LeafSize: 40})
	if err != nil {
		t.Fatal(err)
	}
	b := randVec(m.N, 405)
	B := mat.NewDense(m.N, 2)
	copy(B.Data[:m.N], b)
	yRef, ytRef, YRef := schedRefApply(t, m, b, B)

	for _, w := range []int{2, 3, 7} {
		m.Cfg.Workers = w
		ws := m.NewWorkspace()
		y := make([]float64, m.N)
		yt := make([]float64, m.N)
		Y := mat.NewDense(0, 0)
		m.ApplyToWith(ws, y, b)
		m.ApplyTransposeToWith(ws, yt, b)
		m.ApplyBatchToWith(ws, Y, B)
		ws.Close()
		for i := range y {
			if y[i] != yRef[i] || yt[i] != ytRef[i] {
				t.Fatalf("w=%d unsymmetric apply/transpose differs at %d", w, i)
			}
		}
		for i := range Y.Data {
			if Y.Data[i] != YRef.Data[i] {
				t.Fatalf("w=%d unsymmetric batch differs at flat %d", w, i)
			}
		}
	}
}

// TestSweepStatsConcurrentAppliers overlaps scheduled applies on distinct
// workspaces of one matrix and checks the aggregated sweep stats count every
// apply exactly once with positive stage times. Under -race this pins the
// atomicity of the per-apply counter flush (per-worker lines folded into the
// matrix atomics) that overlapping ApplyToWith calls exercise.
func TestSweepStatsConcurrentAppliers(t *testing.T) {
	pts := pointset.Cube(900, 3, 406)
	m, err := Build(pts, kernel.Coulomb{},
		Config{Kind: DataDriven, Mode: Hybrid, StorageBudget: 1 << 18, Tol: 1e-5, LeafSize: 40, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	b := randVec(m.N, 407)
	const goroutines, iters = 4, 6
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			y := make([]float64, m.N)
			for it := 0; it < iters; it++ {
				ws := m.getWorkspace()
				m.ApplyToWith(ws, y, b)
				m.putWorkspace(ws)
			}
		}()
	}
	wg.Wait()
	st := m.SweepStats()
	if st.Applies != goroutines*iters {
		t.Fatalf("Applies = %d, want %d", st.Applies, goroutines*iters)
	}
	if st.UpNS <= 0 || st.CouplingNS <= 0 || st.DownNS <= 0 || st.LeafNS <= 0 {
		t.Fatalf("scheduled stage timings not accumulating: %+v", st)
	}
	if st.HybridHits+st.HybridMisses == 0 {
		t.Fatalf("hybrid counters not accumulating: %+v", st)
	}
}
