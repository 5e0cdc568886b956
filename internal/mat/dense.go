// Package mat provides the dense linear-algebra substrate used by the
// hierarchical-matrix construction: a row-major dense matrix type, blocked
// matrix multiplication, Householder QR, column-pivoted (rank-revealing) QR,
// row interpolative decomposition, one-sided Jacobi SVD, and adaptive cross
// approximation.
//
// The package is self-contained (standard library only) and tuned for the
// small-to-medium matrices that arise per tree node (tens to a few thousand
// rows): loops are cache-blocked and bounds checks hoisted. On amd64 the hot
// vector primitives dispatch to hand-written AVX assembly that preserves the
// scalar rounding order bitwise (see simd.go); everywhere else, and under
// the noasm build tag, pure Go runs. No unsafe code is used.
package mat

import (
	"fmt"
	"math"
)

// Dense is a row-major dense matrix. The zero value is an empty 0x0 matrix.
//
// Data is laid out so that element (i, j) lives at Data[i*Cols+j]. The
// backing slice is exactly Rows*Cols long; there are no strided views, which
// keeps aliasing rules trivial.
type Dense struct {
	Rows, Cols int
	Data       []float64
}

// NewDense returns a zeroed r-by-c matrix.
func NewDense(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mat: negative dimension %dx%d", r, c))
	}
	return &Dense{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// NewDenseData wraps an existing backing slice as an r-by-c matrix.
// The slice is used directly, not copied; len(data) must be r*c.
func NewDenseData(r, c int, data []float64) *Dense {
	if len(data) != r*c {
		panic(fmt.Sprintf("mat: data length %d does not match %dx%d", len(data), r, c))
	}
	return &Dense{Rows: r, Cols: c, Data: data}
}

// At returns the element at row i, column j.
func (a *Dense) At(i, j int) float64 { return a.Data[i*a.Cols+j] }

// Set assigns v to the element at row i, column j.
func (a *Dense) Set(i, j int, v float64) { a.Data[i*a.Cols+j] = v }

// Row returns the slice backing row i (aliasing the matrix).
func (a *Dense) Row(i int) []float64 { return a.Data[i*a.Cols : (i+1)*a.Cols] }

// Clone returns a deep copy of a.
func (a *Dense) Clone() *Dense {
	b := NewDense(a.Rows, a.Cols)
	copy(b.Data, a.Data)
	return b
}

// Reset zeroes every element in place.
func (a *Dense) Reset() {
	for i := range a.Data {
		a.Data[i] = 0
	}
}

// Reshape reuses a's backing storage for an r-by-c matrix, growing the
// backing slice only when needed, and returns a. The element values after a
// reshape are unspecified; callers that need zeros should call Reset.
func (a *Dense) Reshape(r, c int) *Dense {
	n := r * c
	if cap(a.Data) < n {
		a.Data = make([]float64, n)
	}
	a.Data = a.Data[:n]
	a.Rows, a.Cols = r, c
	return a
}

// T returns a newly allocated transpose of a.
func (a *Dense) T() *Dense {
	t := NewDense(a.Cols, a.Rows)
	for i := 0; i < a.Rows; i++ {
		row := a.Row(i)
		for j, v := range row {
			t.Data[j*t.Cols+i] = v
		}
	}
	return t
}

// SubCopy returns a copy of the rectangle [r0, r1) x [c0, c1).
func (a *Dense) SubCopy(r0, r1, c0, c1 int) *Dense {
	if r0 < 0 || r1 > a.Rows || c0 < 0 || c1 > a.Cols || r0 > r1 || c0 > c1 {
		panic(fmt.Sprintf("mat: sub [%d:%d, %d:%d) out of range for %dx%d", r0, r1, c0, c1, a.Rows, a.Cols))
	}
	s := NewDense(r1-r0, c1-c0)
	for i := r0; i < r1; i++ {
		copy(s.Row(i-r0), a.Row(i)[c0:c1])
	}
	return s
}

// PickRows returns a copy of a's rows selected by idx, in order.
func (a *Dense) PickRows(idx []int) *Dense {
	p := NewDense(len(idx), a.Cols)
	for k, i := range idx {
		copy(p.Row(k), a.Row(i))
	}
	return p
}

// Scale multiplies every element by s in place and returns a.
func (a *Dense) Scale(s float64) *Dense {
	for i := range a.Data {
		a.Data[i] *= s
	}
	return a
}

// Add accumulates b into a element-wise in place and returns a.
func (a *Dense) Add(b *Dense) *Dense {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("mat: add shape mismatch %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	for i, v := range b.Data {
		a.Data[i] += v
	}
	return a
}

// Sub subtracts b from a element-wise in place and returns a.
func (a *Dense) Sub(b *Dense) *Dense {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("mat: sub shape mismatch %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	for i, v := range b.Data {
		a.Data[i] -= v
	}
	return a
}

// Eye returns the n-by-n identity matrix.
func Eye(n int) *Dense {
	e := NewDense(n, n)
	for i := 0; i < n; i++ {
		e.Data[i*n+i] = 1
	}
	return e
}

// FrobNorm returns the Frobenius norm of a, guarding against overflow by
// scaling with the largest magnitude entry.
func (a *Dense) FrobNorm() float64 {
	maxAbs := 0.0
	for _, v := range a.Data {
		if w := math.Abs(v); w > maxAbs {
			maxAbs = w
		}
	}
	if maxAbs == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range a.Data {
		w := v / maxAbs
		sum += w * w
	}
	return maxAbs * math.Sqrt(sum)
}

// MaxAbs returns the largest absolute entry of a.
func (a *Dense) MaxAbs() float64 {
	m := 0.0
	for _, v := range a.Data {
		if w := math.Abs(v); w > m {
			m = w
		}
	}
	return m
}

// Equal reports whether a and b have the same shape and every pair of
// entries differs by at most tol.
func (a *Dense) Equal(b *Dense, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i, v := range a.Data {
		if math.Abs(v-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

// String renders small matrices for debugging; large matrices are summarized.
func (a *Dense) String() string {
	if a.Rows*a.Cols > 100 {
		return fmt.Sprintf("Dense{%dx%d, |.|F=%.3g}", a.Rows, a.Cols, a.FrobNorm())
	}
	s := fmt.Sprintf("Dense %dx%d\n", a.Rows, a.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			s += fmt.Sprintf("% .4e ", a.At(i, j))
		}
		s += "\n"
	}
	return s
}

// mulBlock is the cache-block edge for Mul.
const mulBlock = 64

// Mul returns the product a*b as a new matrix.
//
// The kernel is the classic ikj loop order with row reuse: for each row of a
// it accumulates scaled rows of b, which keeps all inner accesses contiguous.
func Mul(a, b *Dense) *Dense {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("mat: mul shape mismatch %dx%d * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	c := NewDense(a.Rows, b.Cols)
	MulTo(c, a, b)
	return c
}

// MulTo computes c = a*b into an existing matrix, which must have the right
// shape. c must not alias a or b.
func MulTo(c, a, b *Dense) {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		panic(fmt.Sprintf("mat: mulTo shape mismatch c=%dx%d a=%dx%d b=%dx%d",
			c.Rows, c.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	c.Reset()
	n := b.Cols
	for k0 := 0; k0 < a.Cols; k0 += mulBlock {
		k1 := min(k0+mulBlock, a.Cols)
		for i := 0; i < a.Rows; i++ {
			arow := a.Row(i)
			crow := c.Row(i)
			for k := k0; k < k1; k++ {
				aik := arow[k]
				if aik == 0 {
					continue
				}
				brow := b.Data[k*n : k*n+n]
				for j, v := range brow {
					crow[j] += aik * v
				}
			}
		}
	}
}

// MulVec returns a*x as a new vector.
func MulVec(a *Dense, x []float64) []float64 {
	y := make([]float64, a.Rows)
	MulVecTo(y, a, x)
	return y
}

// MulVecTo computes y = a*x. y must have length a.Rows and x length a.Cols;
// y must not alias x.
func MulVecTo(y []float64, a *Dense, x []float64) {
	if len(x) != a.Cols || len(y) != a.Rows {
		panic(fmt.Sprintf("mat: mulvec shape mismatch %dx%d * %d -> %d", a.Rows, a.Cols, len(x), len(y)))
	}
	for i := 0; i < a.Rows; i++ {
		row := a.Row(i)
		s := 0.0
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = s
	}
}

// MulVecAdd computes y += a*x with the same shape rules as MulVecTo.
func MulVecAdd(y []float64, a *Dense, x []float64) {
	if len(x) != a.Cols || len(y) != a.Rows {
		panic(fmt.Sprintf("mat: mulvecadd shape mismatch %dx%d * %d -> %d", a.Rows, a.Cols, len(x), len(y)))
	}
	i := 0
	for ; i+2 <= a.Rows; i += 2 {
		s0, s1 := dot2(a.Row(i), a.Row(i+1), x)
		y[i] += s0
		y[i+1] += s1
	}
	if i < a.Rows {
		y[i] += dot(a.Row(i), x)
	}
}

// dot is the shared row-dot kernel: four independent accumulators break the
// FMA dependency chain (the naive single-accumulator loop serializes on the
// ~4-cycle add latency), combined as (s0+s1)+(s2+s3) with a sequential tail.
// Every matrix product in this package — serial or parallel, one column of
// a batch or a lone vector — reduces through this exact grouping, which is
// what makes their results mutually bitwise-identical.
func dot(row, x []float64) float64 {
	x = x[:len(row)] // bounds-check elimination for the unrolled loads
	if simdEnabled && len(row) >= simdMinDot {
		u := len(row) &^ 3
		s := dotBody(row[:u], x[:u])
		for j := u; j < len(row); j++ {
			s += row[j] * x[j]
		}
		return s
	}
	var s0, s1, s2, s3 float64
	j := 0
	for ; j+4 <= len(row); j += 4 {
		s0 += row[j] * x[j]
		s1 += row[j+1] * x[j+1]
		s2 += row[j+2] * x[j+2]
		s3 += row[j+3] * x[j+3]
	}
	s := (s0 + s1) + (s2 + s3)
	for ; j < len(row); j++ {
		s += row[j] * x[j]
	}
	return s
}

// dot2 computes dot(r0, x) and dot(r1, x) in one pass, loading x once for
// both rows. Each row keeps its own four accumulators with dot's exact
// grouping, so the results are bitwise-identical to two dot calls.
func dot2(r0, r1, x []float64) (float64, float64) {
	x = x[:len(r0)]
	r1 = r1[:len(r0)]
	if simdEnabled && len(r0) >= simdMinDot {
		u := len(r0) &^ 3
		sa, sb := dot2Body(r0[:u], r1[:u], x[:u])
		for j := u; j < len(r0); j++ {
			sa += r0[j] * x[j]
			sb += r1[j] * x[j]
		}
		return sa, sb
	}
	var a0, a1, a2, a3 float64
	var b0, b1, b2, b3 float64
	j := 0
	for ; j+4 <= len(r0); j += 4 {
		x0, x1, x2, x3 := x[j], x[j+1], x[j+2], x[j+3]
		a0 += r0[j] * x0
		a1 += r0[j+1] * x1
		a2 += r0[j+2] * x2
		a3 += r0[j+3] * x3
		b0 += r1[j] * x0
		b1 += r1[j+1] * x1
		b2 += r1[j+2] * x2
		b3 += r1[j+3] * x3
	}
	sa := (a0 + a1) + (a2 + a3)
	sb := (b0 + b1) + (b2 + b3)
	for ; j < len(r0); j++ {
		sa += r0[j] * x[j]
		sb += r1[j] * x[j]
	}
	return sa, sb
}

// axpy computes y[i] += a*x[i], unrolled. Each output element receives
// exactly one add, so unrolling preserves per-element accumulation order.
func axpy(y []float64, a float64, x []float64) {
	y = y[:len(x)] // bounds-check elimination for the unrolled stores
	if simdEnabled && len(x) >= simdMinAxpy {
		u := len(x) &^ 3
		axpyBody(y[:u], x[:u], a)
		for i := u; i < len(x); i++ {
			y[i] += a * x[i]
		}
		return
	}
	i := 0
	for ; i+4 <= len(x); i += 4 {
		y[i] += a * x[i]
		y[i+1] += a * x[i+1]
		y[i+2] += a * x[i+2]
		y[i+3] += a * x[i+3]
	}
	for ; i < len(x); i++ {
		y[i] += a * x[i]
	}
}

// axpy2 computes y[i] = (y[i] + a0*x0[i]) + a1*x1[i]: two sequential
// per-element adds fused into one pass, bitwise-identical to axpy(y, a0, x0)
// followed by axpy(y, a1, x1) but with half the y stores and reloads.
func axpy2(y []float64, a0 float64, x0 []float64, a1 float64, x1 []float64) {
	y = y[:len(x0)]
	x1 = x1[:len(x0)]
	if simdEnabled && len(x0) >= simdMinAxpy {
		u := len(x0) &^ 3
		axpy2Body(y[:u], x0[:u], x1[:u], a0, a1)
		for i := u; i < len(x0); i++ {
			y[i] = (y[i] + a0*x0[i]) + a1*x1[i]
		}
		return
	}
	i := 0
	for ; i+4 <= len(x0); i += 4 {
		y[i] = (y[i] + a0*x0[i]) + a1*x1[i]
		y[i+1] = (y[i+1] + a0*x0[i+1]) + a1*x1[i+1]
		y[i+2] = (y[i+2] + a0*x0[i+2]) + a1*x1[i+2]
		y[i+3] = (y[i+3] + a0*x0[i+3]) + a1*x1[i+3]
	}
	for ; i < len(x0); i++ {
		y[i] = (y[i] + a0*x0[i]) + a1*x1[i]
	}
}

// axpy4 fuses four sequential axpy passes: per element the adds apply in
// row order with one rounding each, bitwise-identical to four axpy calls,
// with a quarter of the y stores and reloads.
func axpy4(y []float64, a0 float64, x0 []float64, a1 float64, x1 []float64, a2 float64, x2 []float64, a3 float64, x3 []float64) {
	y = y[:len(x0)]
	x1 = x1[:len(x0)]
	x2 = x2[:len(x0)]
	x3 = x3[:len(x0)]
	if simdEnabled && len(x0) >= simdMinAxpy {
		u := len(x0) &^ 3
		axpy4Body(y[:u], x0[:u], x1[:u], x2[:u], x3[:u], a0, a1, a2, a3)
		for i := u; i < len(x0); i++ {
			y[i] = (((y[i] + a0*x0[i]) + a1*x1[i]) + a2*x2[i]) + a3*x3[i]
		}
		return
	}
	for i := range x0 {
		y[i] = (((y[i] + a0*x0[i]) + a1*x1[i]) + a2*x2[i]) + a3*x3[i]
	}
}

// MulTVecAdd computes y += aᵀ*x, i.e. y[j] += Σ_i a[i,j] x[i], without
// materializing the transpose. y must have length a.Cols, x length a.Rows.
func MulTVecAdd(y []float64, a *Dense, x []float64) {
	if len(x) != a.Rows || len(y) != a.Cols {
		panic(fmt.Sprintf("mat: multvecadd shape mismatch %dx%d^T * %d -> %d", a.Rows, a.Cols, len(x), len(y)))
	}
	i := 0
	for ; i+4 <= a.Rows; i += 4 {
		x0, x1, x2, x3 := x[i], x[i+1], x[i+2], x[i+3]
		if x0 != 0 && x1 != 0 && x2 != 0 && x3 != 0 {
			axpy4(y, x0, a.Row(i), x1, a.Row(i+1), x2, a.Row(i+2), x3, a.Row(i+3))
			continue
		}
		axpyPair(y, a, i, x0, x1)
		axpyPair(y, a, i+2, x2, x3)
	}
	for ; i+2 <= a.Rows; i += 2 {
		axpyPair(y, a, i, x[i], x[i+1])
	}
	if i < a.Rows && x[i] != 0 {
		axpy(y, x[i], a.Row(i))
	}
}

// axpyPair applies rows i and i+1 of a scaled by x0 and x1, preserving the
// per-row zero skip of the seed kernel.
func axpyPair(y []float64, a *Dense, i int, x0, x1 float64) {
	switch {
	case x0 == 0 && x1 == 0:
	case x0 == 0:
		axpy(y, x1, a.Row(i+1))
	case x1 == 0:
		axpy(y, x0, a.Row(i))
	default:
		axpy2(y, x0, a.Row(i), x1, a.Row(i+1))
	}
}

// Dot returns the inner product of x and y.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("mat: dot length mismatch %d vs %d", len(x), len(y)))
	}
	s := 0.0
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of x with overflow guarding.
func Norm2(x []float64) float64 {
	maxAbs := 0.0
	for _, v := range x {
		if w := math.Abs(v); w > maxAbs {
			maxAbs = w
		}
	}
	if maxAbs == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range x {
		w := v / maxAbs
		sum += w * w
	}
	return maxAbs * math.Sqrt(sum)
}

// Axpy computes y += alpha*x.
func Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("mat: axpy length mismatch %d vs %d", len(x), len(y)))
	}
	for i, v := range x {
		y[i] += alpha * v
	}
}
