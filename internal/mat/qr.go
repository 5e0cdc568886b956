package mat

import (
	"fmt"
	"math"
)

// QR holds a Householder QR factorization A = Q*R of an m-by-n matrix with
// m >= n. The factors are stored compactly: R in the upper triangle of Fac,
// the Householder vectors below the diagonal, and the scalar coefficients in
// Tau.
type QR struct {
	Fac *Dense
	Tau []float64
}

// NewQR factorizes a (without modifying it) and returns the factorization.
// It requires a.Rows >= a.Cols.
func NewQR(a *Dense) *QR {
	if a.Rows < a.Cols {
		panic(fmt.Sprintf("mat: qr requires rows >= cols, got %dx%d", a.Rows, a.Cols))
	}
	f := a.Clone()
	n := f.Cols
	tau := make([]float64, n)
	for k := 0; k < n; k++ {
		tau[k] = houseColumn(f, k, k)
		applyHouseLeft(f, k, k, tau[k], k+1, n)
	}
	return &QR{Fac: f, Tau: tau}
}

// houseColumn computes the Householder reflector that annihilates
// f[r0+1:, c] against f[r0, c], stores the normalized vector below the
// diagonal in column c (with implicit v[0] = 1), stores the resulting R
// entry at (r0, c), and returns tau.
func houseColumn(f *Dense, r0, c int) float64 {
	m := f.Rows
	// Norm of the column segment.
	alpha := f.At(r0, c)
	sq := 0.0
	for i := r0 + 1; i < m; i++ {
		v := f.At(i, c)
		sq += v * v
	}
	if sq == 0 {
		// Already upper triangular in this column; identity reflector.
		return 0
	}
	norm := math.Sqrt(alpha*alpha + sq)
	var beta float64
	if alpha >= 0 {
		beta = -norm
	} else {
		beta = norm
	}
	v0 := alpha - beta
	tau := (beta - alpha) / beta // == -v0/beta
	inv := 1 / v0
	for i := r0 + 1; i < m; i++ {
		f.Set(i, c, f.At(i, c)*inv)
	}
	f.Set(r0, c, beta)
	return tau
}

// applyHouseLeft applies the reflector stored in column c (pivot row r0) to
// columns [c0, c1) of f: f <- (I - tau v vᵀ) f on rows r0..m.
func applyHouseLeft(f *Dense, r0, c int, tau float64, c0, c1 int) {
	if tau == 0 {
		return
	}
	m := f.Rows
	for j := c0; j < c1; j++ {
		// w = vᵀ f[:, j] with v[0] = 1.
		w := f.At(r0, j)
		for i := r0 + 1; i < m; i++ {
			w += f.At(i, c) * f.At(i, j)
		}
		w *= tau
		f.Set(r0, j, f.At(r0, j)-w)
		for i := r0 + 1; i < m; i++ {
			f.Set(i, j, f.At(i, j)-w*f.At(i, c))
		}
	}
}

// R returns the n-by-n upper-triangular factor.
func (qr *QR) R() *Dense {
	n := qr.Fac.Cols
	r := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			r.Set(i, j, qr.Fac.At(i, j))
		}
	}
	return r
}

// Q returns the thin m-by-n orthonormal factor.
func (qr *QR) Q() *Dense {
	m, n := qr.Fac.Rows, qr.Fac.Cols
	q := NewDense(m, n)
	for i := 0; i < n; i++ {
		q.Set(i, i, 1)
	}
	// Apply reflectors in reverse order to the identity block.
	for k := n - 1; k >= 0; k-- {
		tau := qr.Tau[k]
		if tau == 0 {
			continue
		}
		for j := 0; j < n; j++ {
			w := q.At(k, j)
			for i := k + 1; i < m; i++ {
				w += qr.Fac.At(i, k) * q.At(i, j)
			}
			w *= tau
			q.Set(k, j, q.At(k, j)-w)
			for i := k + 1; i < m; i++ {
				q.Set(i, j, q.At(i, j)-w*qr.Fac.At(i, k))
			}
		}
	}
	return q
}
