package mat

import (
	"fmt"
	"math"

	"h2ds/internal/par"
)

// CPQR holds a truncated column-pivoted Householder QR factorization
//
//	A P ≈ Q [R11 R12]
//
// where R11 is Rank-by-Rank upper triangular with non-increasing diagonal
// magnitudes. Perm lists the column order (Perm[k] is the original index of
// the k-th pivoted column); the first Rank entries are the selected columns.
type CPQR struct {
	Fac  *Dense
	Tau  []float64
	Perm []int
	Rank int
}

// cpqrRecomputeTrigger controls when downdated column norms are recomputed
// from scratch to avoid catastrophic cancellation.
const cpqrRecomputeTrigger = 1e-6

// cpqrPanel is the compact-WY panel width of the blocked path: this many
// reflectors are accumulated before their update of the trailing matrix is
// applied as one GEMM.
const cpqrPanel = 16

// Blocked-path dispatch thresholds: below these the panel bookkeeping costs
// more than the unblocked loop saves.
const (
	cpqrBlockMinCols = 48
	cpqrBlockMinRows = 16
)

// cpqrParMinWork is the minimum trailing-update element count before the
// trailing update spreads GEMM rows across the pool's workers.
const cpqrParMinWork = 1 << 15

// NewCPQR computes a column-pivoted QR of a (not modified), truncated at the
// first step k where the largest remaining column norm falls to
// tol * (largest initial pivot norm), or at maxRank columns, whichever comes
// first. maxRank <= 0 means no rank cap. tol <= 0 disables the tolerance
// stop. Works for any shape, including rows < cols.
//
// Matrices large enough to amortize the panel bookkeeping take the blocked
// compact-WY path; both paths use the same pivot rule, tolerance trigger,
// and norm-downdate/recompute logic, so they select identical columns in
// exact arithmetic.
//
// Large trailing-matrix updates of the blocked path run on pool (nil =
// serial). Each GEMM row is claimed and written by exactly one worker with
// a fixed per-row operation order, so the factorization is bitwise-identical
// for any pool. The pool must not be serving another ForWorker call on the
// calling goroutine's behalf (par.Pool is single-client), which is why
// construction code passes it only on levels it iterates sequentially.
func NewCPQR(a *Dense, tol float64, maxRank int, pool *par.Pool) *CPQR {
	return newCPQRInPlace(a.Clone(), tol, maxRank, pool)
}

// newCPQRInPlace factors f directly (no defensive clone) — for callers that
// hand over a freshly built matrix, like the row-ID's transposed panel.
func newCPQRInPlace(f *Dense, tol float64, maxRank int, pool *par.Pool) *CPQR {
	if f.Cols >= cpqrBlockMinCols && f.Rows >= cpqrBlockMinRows {
		return newCPQRBlocked(f, tol, maxRank, pool)
	}
	return newCPQRUnblocked(f, tol, maxRank)
}

// NewCPQRUnblocked is the reference one-reflector-at-a-time factorization
// (the pre-blocking construction path). It is kept callable as the oracle of
// the blocked-vs-unblocked property suites.
func NewCPQRUnblocked(a *Dense, tol float64, maxRank int) *CPQR {
	return newCPQRUnblocked(a.Clone(), tol, maxRank)
}

func newCPQRUnblocked(f *Dense, tol float64, maxRank int) *CPQR {
	m, n := f.Rows, f.Cols
	kmax := min(m, n)
	if maxRank > 0 && maxRank < kmax {
		kmax = maxRank
	}
	tau := make([]float64, 0, kmax)
	perm := make([]int, n)
	for j := range perm {
		perm[j] = j
	}
	norms, normsRef := initColumnNorms(f)

	firstPivot := 0.0
	rank := 0
	for k := 0; k < kmax; k++ {
		// Select pivot.
		p, best := k, norms[k]
		for j := k + 1; j < n; j++ {
			if norms[j] > best {
				p, best = j, norms[j]
			}
		}
		pivNorm := math.Sqrt(math.Max(best, 0))
		if k == 0 {
			firstPivot = pivNorm
		}
		if pivNorm == 0 || (tol > 0 && pivNorm <= tol*firstPivot) {
			break
		}
		if p != k {
			swapColumns(f, k, p)
			perm[k], perm[p] = perm[p], perm[k]
			norms[k], norms[p] = norms[p], norms[k]
			normsRef[k], normsRef[p] = normsRef[p], normsRef[k]
		}
		t := houseColumn(f, k, k)
		applyHouseLeft(f, k, k, t, k+1, n)
		tau = append(tau, t)
		rank++

		// Downdate trailing norms; recompute any that lost too many digits.
		for j := k + 1; j < n; j++ {
			r := f.At(k, j)
			norms[j] -= r * r
			if norms[j] < cpqrRecomputeTrigger*normsRef[j] || norms[j] < 0 {
				s := 0.0
				for i := k + 1; i < m; i++ {
					v := f.At(i, j)
					s += v * v
				}
				norms[j] = s
				normsRef[j] = s
			}
		}
	}
	return &CPQR{Fac: f, Tau: tau, Perm: perm, Rank: rank}
}

// initColumnNorms computes the initial squared column norms in one row-major
// pass (each row read once, accumulating into every column), plus the
// reference copy for the cancellation trigger. Per-column accumulation order
// is row-ascending, the same as a per-column loop.
func initColumnNorms(f *Dense) (norms, normsRef []float64) {
	n := f.Cols
	norms = make([]float64, n)
	normsRef = make([]float64, n)
	for i := 0; i < f.Rows; i++ {
		row := f.Row(i)
		for j, v := range row {
			norms[j] += v * v
		}
	}
	copy(normsRef, norms)
	return norms, normsRef
}

// newCPQRBlocked is the compact-WY factorization (LAPACK dgeqp3's panel
// scheme): within a panel of cpqrPanel reflectors, only the pivot column and
// the pivot row of the trailing matrix are kept current — the pivot rule
// needs the downdated norms and the norms need the current pivot row — while
// the bulk of the update is deferred and applied once per panel as a GEMM on
// the unrolled dot/axpy primitives. Pivot selection, the tolerance stop, and
// the norm-downdate/recompute trigger are the unblocked path's exactly.
//
// Where dlaqps ends the panel on a tripped recompute trigger (LSTICC) —
// ruinous on kernel panels with fast spectral decay, which trip every few
// steps and so degenerate the blocked path into the unblocked one plus panel
// overhead — this materializes the pending panel update of the one affected
// column on the fly (O(m·t) with the same dot kernel the GEMM uses) and
// keeps the panel going, preserving full-width trailing updates.
func newCPQRBlocked(f *Dense, tol float64, maxRank int, pool *par.Pool) *CPQR {
	m, n := f.Rows, f.Cols
	kmax := min(m, n)
	if maxRank > 0 && maxRank < kmax {
		kmax = maxRank
	}
	tau := make([]float64, 0, kmax)
	perm := make([]int, n)
	for j := range perm {
		perm[j] = j
	}
	norms, normsRef := initColumnNorms(f)

	// wy accumulates the panel's compact-WY coefficients: wy.Row(j)[:t]
	// holds what the first t panel reflectors owe column j, so the pending
	// update of any column is a_j -= V(:, :t)·wy(j, :t)ᵀ. This is dlaqps's
	// auxiliary F matrix, stored row-major so the GEMM below runs on
	// contiguous slices of both operands.
	wy := NewDense(n, cpqrPanel)
	accPanel := make([]float64, cpqrPanel)
	accTrail := make([]float64, n)
	trig := make([]int, 0, n)
	trigAcc := make([]float64, n)

	firstPivot := 0.0
	rank := 0
	stop := false
	for k0 := 0; k0 < kmax && !stop; {
		nb := min(cpqrPanel, kmax-k0)
		kb := 0
		for t := 0; t < nb; t++ {
			k := k0 + t
			// Select pivot (largest downdated squared norm, first index wins
			// ties — identical to the unblocked rule).
			p, best := k, norms[k]
			for j := k + 1; j < n; j++ {
				if norms[j] > best {
					p, best = j, norms[j]
				}
			}
			pivNorm := math.Sqrt(math.Max(best, 0))
			if k == 0 {
				firstPivot = pivNorm
			}
			if pivNorm == 0 || (tol > 0 && pivNorm <= tol*firstPivot) {
				stop = true
				break
			}
			if p != k {
				swapColumns(f, k, p)
				perm[k], perm[p] = perm[p], perm[k]
				norms[k], norms[p] = norms[p], norms[k]
				normsRef[k], normsRef[p] = normsRef[p], normsRef[k]
				wk, wp := wy.Row(k), wy.Row(p)
				for c := 0; c < t; c++ {
					wk[c], wp[c] = wp[c], wk[c]
				}
			}
			// Catch column k up on the panel's pending reflectors over rows
			// k..m (rows k0..k-1 were finalized by the pivot-row updates of
			// earlier steps).
			if t > 0 {
				wk := wy.Row(k)[:t]
				for i := k; i < m; i++ {
					row := f.Row(i)
					row[k] -= dot(row[k0:k0+t], wk)
				}
			}
			tk := houseColumn(f, k, k)
			tau = append(tau, tk)
			rank++
			kb = t + 1

			// One row-major pass over rows k..m accumulates vᵀ·(panel V) and
			// vᵀ·(trailing A) together, with v[k] = 1 set in place for the
			// duration (dlaqps's AKK save/restore).
			akk := f.At(k, k)
			f.Set(k, k, 1)
			for c := 0; c < t; c++ {
				accPanel[c] = 0
			}
			for j := k + 1; j < n; j++ {
				accTrail[j] = 0
			}
			for i := k; i < m; i++ {
				row := f.Row(i)
				w := row[k]
				if w == 0 {
					continue
				}
				axpy(accPanel[:t], w, row[k0:k0+t])
				axpy(accTrail[k+1:n], w, row[k+1:n])
			}
			// New coefficient column: wy(j, t) = tk·(vᵀa_j) − tk·wy(j, :t)·(Vᵀv),
			// zero-based for the already-factored columns.
			for c := 0; c < t; c++ {
				accPanel[c] *= -tk
			}
			for j := k0; j <= k; j++ {
				wr := wy.Row(j)
				wr[t] = dot(wr[:t], accPanel[:t])
			}
			for j := k + 1; j < n; j++ {
				wr := wy.Row(j)
				wr[t] = tk*accTrail[j] + dot(wr[:t], accPanel[:t])
			}
			// Finalize the pivot row of the trailing matrix — the norm
			// downdate below needs it — using all t+1 panel reflectors.
			frow := f.Row(k)
			vk := frow[k0 : k0+t+1]
			for j := k + 1; j < n; j++ {
				frow[j] -= dot(vk, wy.Row(j)[:t+1])
			}
			f.Set(k, k, akk)

			// Same downdate rule and cancellation trigger as the unblocked
			// path. The exact recompute needs the current column, which the
			// deferred GEMM has not produced for rows below k — so apply the
			// panel's pending update to that one column on the fly rather
			// than ending the panel (see the function comment). Fast-decay
			// panels trip several columns per step, so the recomputes are
			// batched into one row-major sweep: each matrix row is streamed
			// once and serves every tripped column, instead of one strided
			// column walk per trip. Per-column accumulation order (ascending
			// rows) is unchanged, so the results are bit-identical to the
			// one-column-at-a-time form.
			trig = trig[:0]
			for j := k + 1; j < n; j++ {
				r := frow[j]
				norms[j] -= r * r
				if norms[j] < cpqrRecomputeTrigger*normsRef[j] || norms[j] < 0 {
					trig = append(trig, j)
					trigAcc[len(trig)-1] = 0
				}
			}
			if len(trig) > 0 {
				for i := k + 1; i < m; i++ {
					row := f.Row(i)
					pv := row[k0 : k0+t+1]
					for c, j := range trig {
						v := row[j] - dot(pv, wy.Row(j)[:t+1])
						trigAcc[c] += v * v
					}
				}
				for c, j := range trig {
					norms[j] = trigAcc[c]
					normsRef[j] = trigAcc[c]
				}
			}
		}
		if kb == 0 {
			break
		}
		cpqrTrailingUpdate(f, wy, k0, kb, pool)
		k0 += kb
	}
	return &CPQR{Fac: f, Tau: tau, Perm: perm, Rank: rank}
}

// cpqrTrailingUpdate applies the panel's accumulated block reflector to the
// part of the trailing matrix below the panel:
//
//	A(k0+kb:m, k0+kb:n) -= V(:, k0:k0+kb) · wyᵀ
//
// — the GEMM that makes blocking worthwhile. V lives in the panel columns of
// f (every used row is strictly below its pivot row, so no unit-diagonal
// fixups are needed); both V rows and wy rows are contiguous, so the kernel
// is dot/dot2 over kb-length slices. Rows are independent — each row's
// update reads only that row's V entries plus wy — so the pool spreads rows
// across workers without changing any result bit.
func cpqrTrailingUpdate(f, wy *Dense, k0, kb int, pool *par.Pool) {
	m, n := f.Rows, f.Cols
	r0 := k0 + kb
	if r0 >= m || r0 >= n {
		return
	}
	update := func(i int) {
		row := f.Row(i)
		v := row[k0 : k0+kb]
		j := r0
		for ; j+2 <= n; j += 2 {
			s0, s1 := dot2(wy.Row(j)[:kb], wy.Row(j + 1)[:kb], v)
			row[j] -= s0
			row[j+1] -= s1
		}
		if j < n {
			row[j] -= dot(v, wy.Row(j)[:kb])
		}
	}
	rows := m - r0
	if int64(rows)*int64(n-r0) >= cpqrParMinWork {
		pool.For(rows, func(i int) { update(r0 + i) })
		return
	}
	for i := r0; i < m; i++ {
		update(i)
	}
}

func swapColumns(f *Dense, a, b int) {
	for i := 0; i < f.Rows; i++ {
		row := f.Row(i)
		row[a], row[b] = row[b], row[a]
	}
}

// R returns the Rank-by-n upper-trapezoidal factor (in pivoted column order).
func (c *CPQR) R() *Dense {
	r := NewDense(c.Rank, c.Fac.Cols)
	for i := 0; i < c.Rank; i++ {
		for j := i; j < c.Fac.Cols; j++ {
			r.Set(i, j, c.Fac.At(i, j))
		}
	}
	return r
}

// Q returns the thin m-by-Rank orthonormal factor.
func (c *CPQR) Q() *Dense {
	m, r := c.Fac.Rows, c.Rank
	q := NewDense(m, r)
	for i := 0; i < r; i++ {
		q.Set(i, i, 1)
	}
	for k := r - 1; k >= 0; k-- {
		tau := c.Tau[k]
		if tau == 0 {
			continue
		}
		for j := 0; j < r; j++ {
			w := q.At(k, j)
			for i := k + 1; i < m; i++ {
				w += c.Fac.At(i, k) * q.At(i, j)
			}
			w *= tau
			q.Set(k, j, q.At(k, j)-w)
			for i := k + 1; i < m; i++ {
				q.Set(i, j, q.At(i, j)-w*c.Fac.At(i, k))
			}
		}
	}
	return q
}

// InterpCoeffs solves R11 X = R12 for the coefficient block that expresses
// the non-pivot columns in terms of the pivot columns. The result has shape
// Rank-by-(n-Rank); column k corresponds to original column Perm[Rank+k].
//
// All right-hand sides are back-substituted together, one row-major axpy
// sweep per row of R11, instead of one strided triangular solve per column.
// Each element still receives its updates in ascending-j order followed by
// one division, so the result is bit-identical to the column-at-a-time form.
func (c *CPQR) InterpCoeffs() *Dense {
	r, n := c.Rank, c.Fac.Cols
	x := NewDense(r, n-r)
	for i := 0; i < r; i++ {
		copy(x.Row(i), c.Fac.Row(i)[r:n])
	}
	for i := r - 1; i >= 0; i-- {
		xi := x.Row(i)
		frow := c.Fac.Row(i)
		for j := i + 1; j < r; j++ {
			axpy(xi, -frow[j], x.Row(j))
		}
		if d := frow[i]; d == 0 {
			for k := range xi {
				xi[k] = 0
			}
		} else {
			for k := range xi {
				xi[k] /= d
			}
		}
	}
	return x
}

// CheckShapes panics with a descriptive message if the factorization's
// internal invariants are violated. Used by tests.
func (c *CPQR) CheckShapes() {
	if len(c.Tau) != c.Rank {
		panic(fmt.Sprintf("mat: cpqr tau length %d != rank %d", len(c.Tau), c.Rank))
	}
	if len(c.Perm) != c.Fac.Cols {
		panic(fmt.Sprintf("mat: cpqr perm length %d != cols %d", len(c.Perm), c.Fac.Cols))
	}
}
