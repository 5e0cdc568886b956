package core

import (
	"math"
	"math/rand"

	"h2ds/internal/kernel"
	"h2ds/internal/par"
	"h2ds/internal/pointset"
)

// DefaultErrorRows is the number of sampled rows in the paper's relative
// error estimator (§IV).
const DefaultErrorRows = 12

// RelErrorVs estimates the relative error of a computed product y ≈ A b by
// the paper's protocol: sample `rows` random rows, evaluate them exactly
// against the dense kernel matrix, and return ||z - ẑ||₂ / ||z||₂ over the
// sampled entries. b and y are in the caller's original point ordering.
func (m *Matrix) RelErrorVs(b, y []float64, rows int, seed int64) float64 {
	if rows <= 0 {
		rows = DefaultErrorRows
	}
	if rows > m.N {
		rows = m.N
	}
	rng := rand.New(rand.NewSource(seed))
	idx := rng.Perm(m.N)[:rows]

	bp := make([]float64, m.N)
	m.Tree.PermuteVec(bp, b)

	exact := make([]float64, rows)
	for k, i := range idx {
		// Row for original point i lives at its permuted position.
		exact[k] = kernel.RowApply(m.Kern, m.Tree.Points, m.Tree.InvPerm[i], bp)
	}
	var num, den float64
	for k, i := range idx {
		d := exact[k] - y[i]
		num += d * d
		den += exact[k] * exact[k]
	}
	if den == 0 {
		if num == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Sqrt(num / den)
}

// EstimateRelError applies the matrix to b and estimates the relative error
// of the product with the 12-row protocol.
func (m *Matrix) EstimateRelError(b []float64, rows int, seed int64) float64 {
	y := m.Apply(b)
	return m.RelErrorVs(b, y, rows, seed)
}

// RowSample pairs a row index with its exact dense matvec value.
type RowSample struct {
	Row   int
	Exact float64
}

// DirectRows computes `rows` exact rows of the dense product A b, with the
// row choice driven by seed exactly as in RelErrorVs. It lets other
// representations (e.g. the non-nested H-matrix baseline) share the paper's
// 12-row estimator without an H² build.
func DirectRows(pts *pointset.Points, k kernel.Pairwise, b []float64, rows int, seed int64) []RowSample {
	n := pts.Len()
	if rows <= 0 {
		rows = DefaultErrorRows
	}
	if rows > n {
		rows = n
	}
	rng := rand.New(rand.NewSource(seed))
	idx := rng.Perm(n)[:rows]
	out := make([]RowSample, rows)
	for kk, i := range idx {
		out[kk] = RowSample{Row: i, Exact: kernel.RowApply(k, pts, i, b)}
	}
	return out
}

// DirectApply computes the exact dense product y = A b by brute force
// (O(n²)); the reference for tests and small-scale validation. b and y are
// in the ordering of pts. The rows run on a pool of GOMAXPROCS workers.
func DirectApply(pts *pointset.Points, k kernel.Pairwise, b []float64) []float64 {
	y := make([]float64, pts.Len())
	pool := par.NewPool(0)
	defer pool.Close()
	pool.For(pts.Len(), func(i int) {
		y[i] = kernel.RowApply(k, pts, i, b)
	})
	return y
}
