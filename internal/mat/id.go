package mat

import "h2ds/internal/par"

// RowID is a row interpolative decomposition
//
//	A ≈ T · A[Skel, :]
//
// where Skel selects Rank rows of A ("skeleton" rows) and the m-by-Rank
// interpolation matrix T carries an identity on the skeleton rows:
// T[Skel[k], k] = 1 and T[Skel[k], j] = 0 for j != k.
//
// This is the structure the data-driven H² construction depends on: because
// the skeleton rows are actual rows of the kernel matrix, every coupling
// block downstream is a plain kernel submatrix and can be regenerated from
// indices alone (the on-the-fly mode).
type RowID struct {
	Skel []int
	T    *Dense
	Rank int
}

// NewRowID computes a row ID of a via a column-pivoted QR of aᵀ, truncated
// at relative tolerance tol (on the pivot column norms) and capped at
// maxRank rows (maxRank <= 0 means uncapped). pool (nil = serial) is
// forwarded to the blocked CPQR's trailing updates (see NewCPQR for the
// determinism and single-client contracts).
func NewRowID(a *Dense, tol float64, maxRank int, pool *par.Pool) *RowID {
	if a.Rows == 0 {
		return &RowID{Skel: nil, T: NewDense(0, 0), Rank: 0}
	}
	// a.T() is a fresh transposed copy, so the CPQR can consume it in place.
	return rowIDFromCPQR(newCPQRInPlace(a.T(), tol, maxRank, pool), a.Rows)
}

// NewRowIDUnblocked is NewRowID on the reference unblocked CPQR — the
// pre-blocking construction path, kept as the equivalence suites' oracle.
func NewRowIDUnblocked(a *Dense, tol float64, maxRank int) *RowID {
	if a.Rows == 0 {
		return &RowID{Skel: nil, T: NewDense(0, 0), Rank: 0}
	}
	return rowIDFromCPQR(newCPQRUnblocked(a.T(), tol, maxRank), a.Rows)
}

func rowIDFromCPQR(c *CPQR, m int) *RowID {
	r := c.Rank
	skel := make([]int, r)
	copy(skel, c.Perm[:r])

	t := NewDense(m, r)
	for k := 0; k < r; k++ {
		t.Set(skel[k], k, 1)
	}
	if r < m && r > 0 {
		// Non-skeleton row Perm[r+k] of a is approximated by X[:,k]ᵀ · a[skel,:].
		x := c.InterpCoeffs()
		for k := 0; k < m-r; k++ {
			row := c.Perm[r+k]
			for j := 0; j < r; j++ {
				t.Set(row, j, x.At(j, k))
			}
		}
	}
	return &RowID{Skel: skel, T: t, Rank: r}
}

// Reconstruct returns T · A[Skel, :], the ID's approximation of the original
// matrix a (useful for error checks in tests).
func (id *RowID) Reconstruct(a *Dense) *Dense {
	return Mul(id.T, a.PickRows(id.Skel))
}
