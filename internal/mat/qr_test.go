package mat

import (
	"math/rand"
	"testing"
)

func TestQRReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 10; trial++ {
		m := 5 + rng.Intn(40)
		n := 1 + rng.Intn(m)
		a := randDense(rng, m, n)
		qr := NewQR(a)
		q := qr.Q()
		r := qr.R()
		if !Mul(q, r).Equal(a, 1e-11) {
			t.Fatalf("trial %d: QR != A", trial)
		}
		// Orthonormality: QᵀQ = I.
		qtq := Mul(q.T(), q)
		if !qtq.Equal(Eye(n), 1e-12) {
			t.Fatalf("trial %d: Q not orthonormal, err %g", trial, qtq.Sub(Eye(n)).MaxAbs())
		}
		// R upper triangular.
		for i := 0; i < n; i++ {
			for j := 0; j < i; j++ {
				if r.At(i, j) != 0 {
					t.Fatalf("R not upper triangular at (%d,%d)", i, j)
				}
			}
		}
	}
}

func TestQRWideMatrixPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for rows < cols")
		}
	}()
	NewQR(NewDense(2, 5))
}

func TestQRZeroColumn(t *testing.T) {
	// A zero column must not crash (tau = 0 identity reflector path).
	a := NewDense(6, 3)
	for i := 0; i < 6; i++ {
		a.Set(i, 0, float64(i+1))
		a.Set(i, 2, float64(2*i+1))
	}
	qr := NewQR(a)
	if !Mul(qr.Q(), qr.R()).Equal(a, 1e-12) {
		t.Fatal("QR of matrix with zero column failed to reconstruct")
	}
}
