package solver

import (
	"math"
	"math/rand"
	"testing"

	"h2ds/internal/mat"
)

// denseOp wraps a dense matrix as an Operator.
type denseOp struct{ a *mat.Dense }

func (d denseOp) ApplyTo(y, b []float64) { mat.MulVecTo(y, d.a, b) }

func randSPD(rng *rand.Rand, n int) *mat.Dense {
	b := mat.NewDense(n, n)
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	a := mat.Mul(b, b.T())
	for i := 0; i < n; i++ {
		a.Set(i, i, a.At(i, i)+float64(n))
	}
	return a
}

func residual(a Operator, x, b []float64) float64 {
	r := make([]float64, len(b))
	a.ApplyTo(r, x)
	for i := range r {
		r[i] = b[i] - r[i]
	}
	return mat.Norm2(r) / mat.Norm2(b)
}

func TestCGSolvesSPD(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{5, 40, 120} {
		a := denseOp{randSPD(rng, n)}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		res := CG(a, b, 1e-10, 0)
		if !res.Converged {
			t.Fatalf("n=%d: CG did not converge (res %g after %d iters)", n, res.Residual, res.Iterations)
		}
		if r := residual(a, res.X, b); r > 1e-9 {
			t.Fatalf("n=%d: true residual %g", n, r)
		}
	}
}

func TestCGZeroRHS(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := denseOp{randSPD(rng, 10)}
	res := CG(a, make([]float64, 10), 1e-10, 0)
	if !res.Converged || mat.Norm2(res.X) != 0 {
		t.Fatal("zero RHS must give zero solution immediately")
	}
}

func TestCGIterationCap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := denseOp{randSPD(rng, 60)}
	b := make([]float64, 60)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	res := CG(a, b, 1e-14, 2)
	if res.Converged || res.Iterations != 2 {
		t.Fatalf("cap ignored: %+v", res.Iterations)
	}
}

func TestCGNonSPDStops(t *testing.T) {
	// Indefinite matrix: CG must stop gracefully rather than diverge.
	a := mat.NewDense(2, 2)
	a.Set(0, 0, 1)
	a.Set(1, 1, -1)
	res := CG(denseOp{a}, []float64{0, 1}, 1e-10, 50)
	if res.Converged {
		t.Fatal("CG claimed convergence on an indefinite system it stopped early on")
	}
}

func TestGMRESSolvesNonsymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{5, 40, 90} {
		a := mat.Eye(n)
		for i := range a.Data {
			a.Data[i] += 0.3 * rng.NormFloat64() / math.Sqrt(float64(n))
		}
		op := denseOp{a}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		res := GMRES(op, b, 20, 1e-10, 0)
		if !res.Converged {
			t.Fatalf("n=%d: GMRES did not converge (res %g, iters %d)", n, res.Residual, res.Iterations)
		}
		if r := residual(op, res.X, b); r > 1e-8 {
			t.Fatalf("n=%d: true residual %g", n, r)
		}
	}
}

func TestGMRESRestartsWork(t *testing.T) {
	// Force multiple restart cycles with a small restart length.
	rng := rand.New(rand.NewSource(5))
	n := 50
	a := mat.Eye(n)
	for i := range a.Data {
		a.Data[i] += 0.2 * rng.NormFloat64() / math.Sqrt(float64(n))
	}
	op := denseOp{a}
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	res := GMRES(op, b, 5, 1e-9, 0)
	if !res.Converged {
		t.Fatalf("restarted GMRES failed: res %g iters %d", res.Residual, res.Iterations)
	}
	if res.Iterations <= 5 {
		t.Fatalf("expected multiple cycles, converged in %d inner iterations", res.Iterations)
	}
}

func TestGMRESZeroRHSAndIdentity(t *testing.T) {
	res := GMRES(Func(func(y, b []float64) { copy(y, b) }), make([]float64, 7), 5, 1e-10, 0)
	if !res.Converged {
		t.Fatal("zero RHS")
	}
	b := []float64{1, 2, 3}
	res2 := GMRES(Func(func(y, x []float64) { copy(y, x) }), b, 3, 1e-12, 0)
	if !res2.Converged {
		t.Fatal("identity solve failed")
	}
	for i := range b {
		if math.Abs(res2.X[i]-b[i]) > 1e-10 {
			t.Fatalf("identity solution wrong at %d", i)
		}
	}
}

func TestShifted(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := 20
	a := randSPD(rng, n)
	op := Shifted{Op: denseOp{a}, Sigma: 2.5}
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	y := make([]float64, n)
	op.ApplyTo(y, x)
	want := mat.MulVec(a, x)
	for i := range want {
		want[i] += 2.5 * x[i]
	}
	for i := range y {
		if math.Abs(y[i]-want[i]) > 1e-12 {
			t.Fatalf("shifted apply wrong at %d", i)
		}
	}
	// Zero shift is a no-op wrapper.
	op0 := Shifted{Op: denseOp{a}}
	op0.ApplyTo(y, x)
	w := mat.MulVec(a, x)
	for i := range y {
		if y[i] != w[i] {
			t.Fatal("sigma=0 must not perturb")
		}
	}
}

func TestFuncAdapterAndValidate(t *testing.T) {
	f := Func(func(y, b []float64) {
		for i := range y {
			y[i] = 2 * b[i]
		}
	})
	y := make([]float64, 3)
	f.ApplyTo(y, []float64{1, 2, 3})
	if y[1] != 4 {
		t.Fatal("Func adapter broken")
	}
}
