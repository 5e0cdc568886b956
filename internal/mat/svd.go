package mat

import (
	"math"
)

// SVD is a thin singular value decomposition A = U diag(S) Vᵀ with U m-by-k,
// V n-by-k, k = min(m, n), and S sorted in non-increasing order.
type SVD struct {
	U *Dense
	S []float64
	V *Dense
}

// jacobiSweepLimit bounds the number of one-sided Jacobi sweeps; convergence
// for the modest sizes used here is typically well under ten sweeps.
const jacobiSweepLimit = 60

// NewSVD computes a thin SVD of a using one-sided Jacobi rotations. The
// method is slow for very large matrices but simple, accurate, and entirely
// adequate for the per-node blocks (hundreds of rows) this library handles.
func NewSVD(a *Dense) *SVD {
	m, n := a.Rows, a.Cols
	if m < n {
		// Work on the transpose and swap the factors back.
		s := NewSVD(a.T())
		return &SVD{U: s.V, S: s.S, V: s.U}
	}
	// One-sided Jacobi: orthogonalize the columns of G = A·V.
	g := a.Clone()
	v := Eye(n)
	eps := 1e-15
	for sweep := 0; sweep < jacobiSweepLimit; sweep++ {
		off := 0.0
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				// Compute the 2x2 Gram entries for columns p, q.
				alpha, beta, gamma := 0.0, 0.0, 0.0
				for i := 0; i < m; i++ {
					gp := g.At(i, p)
					gq := g.At(i, q)
					alpha += gp * gp
					beta += gq * gq
					gamma += gp * gq
				}
				if math.Abs(gamma) <= eps*math.Sqrt(alpha*beta) || gamma == 0 {
					continue
				}
				off += math.Abs(gamma)
				// Jacobi rotation zeroing the off-diagonal Gram entry.
				zeta := (beta - alpha) / (2 * gamma)
				t := math.Copysign(1, zeta) / (math.Abs(zeta) + math.Sqrt(1+zeta*zeta))
				c := 1 / math.Sqrt(1+t*t)
				s := c * t
				for i := 0; i < m; i++ {
					gp := g.At(i, p)
					gq := g.At(i, q)
					g.Set(i, p, c*gp-s*gq)
					g.Set(i, q, s*gp+c*gq)
				}
				for i := 0; i < n; i++ {
					vp := v.At(i, p)
					vq := v.At(i, q)
					v.Set(i, p, c*vp-s*vq)
					v.Set(i, q, s*vp+c*vq)
				}
			}
		}
		if off == 0 {
			break
		}
	}
	// Column norms of G are the singular values.
	sv := make([]float64, n)
	for j := 0; j < n; j++ {
		s := 0.0
		for i := 0; i < m; i++ {
			w := g.At(i, j)
			s += w * w
		}
		sv[j] = math.Sqrt(s)
	}
	// Sort descending (selection sort keeps the column swaps simple).
	for p := 0; p < n; p++ {
		best := p
		for q := p + 1; q < n; q++ {
			if sv[q] > sv[best] {
				best = q
			}
		}
		if best != p {
			sv[p], sv[best] = sv[best], sv[p]
			swapColumns(g, p, best)
			swapColumns(v, p, best)
		}
	}
	// Normalize to obtain U.
	u := NewDense(m, n)
	for j := 0; j < n; j++ {
		if sv[j] > 0 {
			inv := 1 / sv[j]
			for i := 0; i < m; i++ {
				u.Set(i, j, g.At(i, j)*inv)
			}
		}
	}
	return &SVD{U: u, S: sv, V: v}
}

// Rank returns the number of singular values exceeding tol times the largest
// singular value.
func (s *SVD) Rank(tol float64) int {
	if len(s.S) == 0 || s.S[0] == 0 {
		return 0
	}
	r := 0
	for _, v := range s.S {
		if v > tol*s.S[0] {
			r++
		}
	}
	return r
}

// PInv returns the Moore–Penrose pseudoinverse, truncating singular values
// at tol times the largest (tol <= 0 uses a machine-epsilon based cutoff).
func (s *SVD) PInv(tol float64) *Dense {
	k := len(s.S)
	if tol <= 0 {
		tol = 1e-14 * float64(max(s.U.Rows, s.V.Rows))
	}
	// pinv = V diag(1/s) Uᵀ over the retained spectrum.
	r := s.Rank(tol)
	n, m := s.V.Rows, s.U.Rows
	p := NewDense(n, m)
	for j := 0; j < r && j < k; j++ {
		inv := 1 / s.S[j]
		for i := 0; i < n; i++ {
			vij := s.V.At(i, j) * inv
			if vij == 0 {
				continue
			}
			for l := 0; l < m; l++ {
				p.Set(i, l, p.At(i, l)+vij*s.U.At(l, j))
			}
		}
	}
	return p
}
