package hmatrix

import (
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"h2ds/internal/core"
	"h2ds/internal/kernel"
	"h2ds/internal/pointset"
)

func randVec(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func relErr(y, want []float64) float64 {
	num, den := 0.0, 0.0
	for i := range y {
		d := y[i] - want[i]
		num += d * d
		den += want[i] * want[i]
	}
	return math.Sqrt(num / den)
}

func TestHMatrixAccuracy(t *testing.T) {
	pts := pointset.Cube(2500, 3, 1)
	b := randVec(2500, 2)
	want := core.DirectApply(pts, kernel.Coulomb{}, b)
	for _, tol := range []float64{1e-4, 1e-7} {
		m, err := Build(pts, kernel.Coulomb{}, Config{Tol: tol, LeafSize: 64})
		if err != nil {
			t.Fatal(err)
		}
		if e := relErr(m.Apply(b), want); e > 10*tol {
			t.Fatalf("tol %g: error %g", tol, e)
		}
	}
}

func TestHMatrixKernels(t *testing.T) {
	pts := pointset.Sphere(1500, 3)
	b := randVec(1500, 4)
	for _, k := range []kernel.Kernel{kernel.Exponential{}, kernel.Gaussian{Scale: 0.1}} {
		want := core.DirectApply(pts, k, b)
		m, err := Build(pts, k, Config{Tol: 1e-6, LeafSize: 50})
		if err != nil {
			t.Fatal(err)
		}
		if e := relErr(m.Apply(b), want); e > 1e-5 {
			t.Fatalf("%s: error %g", k.Name(), e)
		}
	}
}

// TestBuildAndApplyLeaveNoGoroutines pins that Build and ApplyTo each close
// the worker pool they open: once a call returns, the goroutine count falls
// back to its value before the call. The collector is off so that the
// pool's finalizer cannot stand in for a missing Close.
func TestBuildAndApplyLeaveNoGoroutines(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	pts := pointset.Cube(1200, 3, 47)
	settled := func(name string, before int) {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				t.Fatalf("%s left goroutines behind: %d before, %d after", name, before, runtime.NumGoroutine())
			}
			time.Sleep(time.Millisecond)
		}
	}

	before := runtime.NumGoroutine()
	m, err := Build(pts, kernel.Coulomb{}, Config{Tol: 1e-6, LeafSize: 60, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	settled("Build", before)

	before = runtime.NumGoroutine()
	y := make([]float64, m.N)
	m.ApplyTo(y, randVec(m.N, 48))
	settled("ApplyTo", before)
}

func TestHMatrixDeterministicAcrossWorkers(t *testing.T) {
	pts := pointset.Cube(1500, 3, 5)
	b := randVec(1500, 6)
	m1, err := Build(pts, kernel.Coulomb{}, Config{Tol: 1e-6, LeafSize: 60, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	m4, err := Build(pts, kernel.Coulomb{}, Config{Tol: 1e-6, LeafSize: 60, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	y1 := m1.Apply(b)
	y4 := m4.Apply(b)
	for i := range y1 {
		if y1[i] != y4[i] {
			t.Fatalf("worker count changed H-matrix result at %d", i)
		}
	}
}

func TestHMatrixStatsAndBytes(t *testing.T) {
	pts := pointset.Cube(2000, 3, 7)
	m, err := Build(pts, kernel.Coulomb{}, Config{Tol: 1e-6, LeafSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	st := m.ComputeStats()
	if st.LowRankBlocks == 0 || st.NearBlocks == 0 || st.MaxRank == 0 || st.AvgRank <= 0 {
		t.Fatalf("stats not populated: %+v", st)
	}
	if m.Bytes() <= m.Tree.Bytes() {
		t.Fatal("Bytes must include block storage")
	}
}

func TestHMatrixVsH2MemoryAblation(t *testing.T) {
	// The nested-basis ablation: at equal tolerance the H-matrix stores
	// every admissible block independently, so its farfield storage should
	// exceed the H² matrix's basis+transfer+coupling storage once the tree
	// is deep enough.
	pts := pointset.Cube(6000, 3, 8)
	tol := 1e-6
	hm, err := Build(pts, kernel.Coulomb{}, Config{Tol: tol, LeafSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	h2, err := core.Build(pts, kernel.Coulomb{}, core.Config{Kind: core.DataDriven, Mode: core.Normal, Tol: tol, LeafSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	b := randVec(6000, 9)
	want := core.DirectApply(pts, kernel.Coulomb{}, b)
	if e := relErr(hm.Apply(b), want); e > 1e-4 {
		t.Fatalf("H accuracy %g", e)
	}
	if e := relErr(h2.Apply(b), want); e > 1e-4 {
		t.Fatalf("H² accuracy %g", e)
	}
	mem := h2.Memory()
	h2Far := mem.Basis + mem.Transfer + mem.Coupling + mem.Skeletons
	hFar := hm.Bytes() - hm.Tree.Bytes()
	// Subtract the (identical) nearfield storage from the H side.
	hFar -= mem.Nearfield
	if hFar <= h2Far/2 {
		t.Fatalf("expected H farfield storage (%d) to be comparable to or above H² (%d)", hFar, h2Far)
	}
}

func TestHMatrixSingleLeaf(t *testing.T) {
	pts := pointset.Cube(40, 3, 10)
	b := randVec(40, 11)
	m, err := Build(pts, kernel.Coulomb{}, Config{LeafSize: 100})
	if err != nil {
		t.Fatal(err)
	}
	want := core.DirectApply(pts, kernel.Coulomb{}, b)
	if e := relErr(m.Apply(b), want); e > 1e-13 {
		t.Fatalf("single leaf must be exact, got %g", e)
	}
	if _, err := Build(pointset.New(0, 3), kernel.Coulomb{}, Config{}); err == nil {
		t.Fatal("empty point set must error")
	}
}

// unsym is a minimal unsymmetric kernel for the rejection test.
type unsym struct{}

func (unsym) EvalPair(x, y []float64) float64 { return x[0] - y[0] }
func (unsym) Symmetric() bool                 { return false }
func (unsym) Name() string                    { return "unsym" }

func TestHMatrixRejectsUnsymmetric(t *testing.T) {
	if _, err := Build(pointset.Cube(100, 3, 1), unsym{}, Config{}); err == nil {
		t.Fatal("unsymmetric kernel must be rejected (transposed-block reuse would be wrong)")
	}
}
