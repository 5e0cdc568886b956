package solver

import (
	"math"
	"math/rand"
	"testing"

	"h2ds/internal/mat"
)

// denseBatchOp wraps a dense matrix as both an Operator and a BatchOperator
// so CGMulti results can be checked against independent CG runs.
type denseBatchOp struct{ a *mat.Dense }

func (d denseBatchOp) ApplyTo(y, b []float64) { mat.MulVecTo(y, d.a, b) }

func (d denseBatchOp) ApplyBatchTo(y, b *mat.Dense) {
	y.Reshape(d.a.Rows, b.Cols)
	mat.MulTo(y, d.a, b)
}

func TestCGMultiMatchesCG(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const n, k = 60, 5
	op := denseBatchOp{randSPD(rng, n)}
	B := mat.NewDense(n, k)
	for i := range B.Data {
		B.Data[i] = rng.NormFloat64()
	}
	res := CGMulti(op, B, 1e-10, 0)
	if len(res) != k {
		t.Fatalf("got %d results want %d", len(res), k)
	}
	for j := 0; j < k; j++ {
		if !res[j].Converged {
			t.Fatalf("column %d did not converge: %+v", j, res[j])
		}
		col := make([]float64, n)
		for i := 0; i < n; i++ {
			col[i] = B.At(i, j)
		}
		if r := residual(op, res[j].X, col); r > 1e-8 {
			t.Fatalf("column %d residual %g", j, r)
		}
		// Columnwise recurrences are exactly independent CG: same iterate.
		single := CG(op, col, 1e-10, 0)
		if single.Iterations != res[j].Iterations {
			t.Fatalf("column %d: %d iterations vs single CG's %d", j, res[j].Iterations, single.Iterations)
		}
		for i := range single.X {
			if math.Abs(res[j].X[i]-single.X[i]) > 1e-12 {
				t.Fatalf("column %d iterate differs from single CG at %d", j, i)
			}
		}
	}
}

func TestCGMultiEarlyConvergence(t *testing.T) {
	// One trivially easy column (a scaled eigenvector-free zero RHS) must
	// converge immediately without disturbing the others.
	rng := rand.New(rand.NewSource(22))
	const n, k = 40, 3
	op := denseBatchOp{randSPD(rng, n)}
	B := mat.NewDense(n, k)
	for i := 0; i < n; i++ {
		B.Set(i, 0, rng.NormFloat64())
		// column 1 stays zero
		B.Set(i, 2, rng.NormFloat64())
	}
	res := CGMulti(op, B, 1e-10, 0)
	if !res[1].Converged || res[1].Iterations != 0 {
		t.Fatalf("zero column must converge in 0 iterations: %+v", res[1])
	}
	for i := range res[1].X {
		if res[1].X[i] != 0 {
			t.Fatalf("zero RHS must yield zero solution at %d", i)
		}
	}
	for _, j := range []int{0, 2} {
		col := make([]float64, n)
		for i := 0; i < n; i++ {
			col[i] = B.At(i, j)
		}
		if !res[j].Converged || residual(op, res[j].X, col) > 1e-8 {
			t.Fatalf("column %d: %+v", j, res[j])
		}
	}
}

func TestShiftedBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const n, k = 30, 4
	a := randSPD(rng, n)
	op := ShiftedBatch{Op: denseBatchOp{a}, Sigma: 2.5}
	B := mat.NewDense(n, k)
	for i := range B.Data {
		B.Data[i] = rng.NormFloat64()
	}
	Y := mat.NewDense(n, k)
	op.ApplyBatchTo(Y, B)
	scalar := Shifted{Op: denseBatchOp{a}, Sigma: 2.5}
	for j := 0; j < k; j++ {
		col := make([]float64, n)
		for i := 0; i < n; i++ {
			col[i] = B.At(i, j)
		}
		y := make([]float64, n)
		scalar.ApplyTo(y, col)
		for i := range y {
			if math.Abs(Y.At(i, j)-y[i]) > 1e-13 {
				t.Fatalf("ShiftedBatch column %d differs at %d", j, i)
			}
		}
	}
}
