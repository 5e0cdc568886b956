// Package solver provides matrix-free iterative solvers (conjugate
// gradients and restarted GMRES) over a linear-operator interface. The
// paper motivates the normal memory mode with exactly this workload: the
// iterative solution of kernel systems performs many matrix-vector products
// per construction (§I-A, §VI-B).
package solver

import (
	"math"

	"h2ds/internal/mat"
)

// Operator is anything that can apply itself to a vector. h2ds matrices
// (core.Matrix) satisfy it via their ApplyTo method.
type Operator interface {
	ApplyTo(y, b []float64)
}

// Func adapts a function to the Operator interface.
type Func func(y, b []float64)

// ApplyTo implements Operator.
func (f Func) ApplyTo(y, b []float64) { f(y, b) }

// Shifted wraps an operator as A + σI, the standard regularized form for
// kernel ridge regression / Gaussian-process systems.
type Shifted struct {
	Op    Operator
	Sigma float64
}

// ApplyTo implements Operator.
func (s Shifted) ApplyTo(y, b []float64) {
	s.Op.ApplyTo(y, b)
	if s.Sigma != 0 {
		for i := range y {
			y[i] += s.Sigma * b[i]
		}
	}
}

// Result reports the outcome of an iterative solve.
type Result struct {
	X          []float64
	Iterations int
	Residual   float64 // final relative residual ||b - A x|| / ||b||
	Converged  bool
}

// CG solves A x = b for symmetric positive definite A with the conjugate
// gradient method, starting from x = 0, stopping when the relative residual
// drops below tol or after maxIter iterations.
func CG(a Operator, b []float64, tol float64, maxIter int) Result {
	n := len(b)
	if maxIter <= 0 {
		maxIter = n
	}
	if tol <= 0 {
		tol = 1e-10
	}
	x := make([]float64, n)
	r := append([]float64(nil), b...)
	p := append([]float64(nil), b...)
	ap := make([]float64, n)
	bnorm := mat.Norm2(b)
	if bnorm == 0 {
		return Result{X: x, Converged: true}
	}
	rr := mat.Dot(r, r)
	res := Result{X: x}
	for k := 0; k < maxIter; k++ {
		a.ApplyTo(ap, p)
		pap := mat.Dot(p, ap)
		if pap <= 0 {
			// Not SPD (or numerically singular): stop with best iterate.
			res.Iterations = k
			res.Residual = math.Sqrt(rr) / bnorm
			return res
		}
		alpha := rr / pap
		mat.Axpy(alpha, p, x)
		mat.Axpy(-alpha, ap, r)
		rrNew := mat.Dot(r, r)
		res.Iterations = k + 1
		if math.Sqrt(rrNew) <= tol*bnorm {
			res.Residual = math.Sqrt(rrNew) / bnorm
			res.Converged = true
			return res
		}
		beta := rrNew / rr
		for i := range p {
			p[i] = r[i] + beta*p[i]
		}
		rr = rrNew
	}
	res.Residual = math.Sqrt(rr) / bnorm
	return res
}

// GMRES solves A x = b with restarted GMRES(restart), starting from x = 0.
// It stops when the relative residual drops below tol or after maxIter
// total inner iterations.
func GMRES(a Operator, b []float64, restart int, tol float64, maxIter int) Result {
	n := len(b)
	if restart <= 0 {
		restart = 30
	}
	if restart > n {
		restart = n
	}
	if maxIter <= 0 {
		maxIter = 10 * n
	}
	if tol <= 0 {
		tol = 1e-10
	}
	bnorm := mat.Norm2(b)
	x := make([]float64, n)
	if bnorm == 0 {
		return Result{X: x, Converged: true}
	}

	r := make([]float64, n)
	w := make([]float64, n)
	// Krylov basis (restart+1 vectors) and Hessenberg factors.
	v := make([][]float64, restart+1)
	for i := range v {
		v[i] = make([]float64, n)
	}
	h := mat.NewDense(restart+1, restart)
	cs := make([]float64, restart)
	sn := make([]float64, restart)
	s := make([]float64, restart+1)

	total := 0
	res := Result{}
	for total < maxIter {
		// r = b - A x
		a.ApplyTo(r, x)
		for i := range r {
			r[i] = b[i] - r[i]
		}
		beta := mat.Norm2(r)
		res.Residual = beta / bnorm
		if beta <= tol*bnorm {
			res.Converged = true
			break
		}
		inv := 1 / beta
		for i := range r {
			v[0][i] = r[i] * inv
		}
		for i := range s {
			s[i] = 0
		}
		s[0] = beta
		h.Reset()

		k := 0
		for ; k < restart && total < maxIter; k++ {
			total++
			a.ApplyTo(w, v[k])
			// Modified Gram-Schmidt.
			for i := 0; i <= k; i++ {
				hik := mat.Dot(w, v[i])
				h.Set(i, k, hik)
				mat.Axpy(-hik, v[i], w)
			}
			wn := mat.Norm2(w)
			h.Set(k+1, k, wn)
			if wn > 0 {
				invw := 1 / wn
				for i := range w {
					v[k+1][i] = w[i] * invw
				}
			}
			// Apply the accumulated Givens rotations to the new column.
			for i := 0; i < k; i++ {
				t1 := cs[i]*h.At(i, k) + sn[i]*h.At(i+1, k)
				t2 := -sn[i]*h.At(i, k) + cs[i]*h.At(i+1, k)
				h.Set(i, k, t1)
				h.Set(i+1, k, t2)
			}
			// New rotation annihilating h[k+1][k].
			hk, hk1 := h.At(k, k), h.At(k+1, k)
			d := math.Hypot(hk, hk1)
			if d == 0 {
				cs[k], sn[k] = 1, 0
			} else {
				cs[k], sn[k] = hk/d, hk1/d
			}
			h.Set(k, k, cs[k]*hk+sn[k]*hk1)
			h.Set(k+1, k, 0)
			s[k+1] = -sn[k] * s[k]
			s[k] = cs[k] * s[k]
			res.Iterations = total
			res.Residual = math.Abs(s[k+1]) / bnorm
			if res.Residual <= tol {
				k++
				break
			}
			if wn == 0 {
				// Lucky breakdown: the Krylov space is invariant.
				k++
				break
			}
		}
		// Back-substitute y from the k-by-k triangle and update x.
		y := make([]float64, k)
		for i := k - 1; i >= 0; i-- {
			sum := s[i]
			for j := i + 1; j < k; j++ {
				sum -= h.At(i, j) * y[j]
			}
			y[i] = sum / h.At(i, i)
		}
		for j := 0; j < k; j++ {
			mat.Axpy(y[j], v[j], x)
		}
		if res.Residual <= tol {
			// Recompute the true residual once for an honest report.
			a.ApplyTo(r, x)
			for i := range r {
				r[i] = b[i] - r[i]
			}
			res.Residual = mat.Norm2(r) / bnorm
			res.Converged = res.Residual <= 10*tol
			break
		}
	}
	res.X = x
	return res
}
