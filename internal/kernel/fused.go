// Fused evaluate-and-apply primitives: the on-the-fly matvec path without
// the assemble-then-multiply round trip.
//
// The seed on-the-fly path materializes each coupling/nearfield tile into a
// per-worker scratch buffer (Assemble) and then runs a dense GEMV over it —
// every kernel value makes a trip through memory, and every entry pays an
// EvalDist interface call that the compiler cannot inline, which serializes
// the sqrt/divide pipeline around the call. The primitives here fuse the two
// passes and devirtualize the kernel: a type switch on the concrete kernel
// (hoisted out of the inner loop to chunk granularity) selects a call-free
// evaluation loop, and the kernel values for a chunk of at most fusedChunk
// entries live in a stack buffer that never leaves L1. Only a slice of the
// tile ever exists — one tile row for the block primitives, a 64-entry
// chunk for RowApply — instead of the full rows x cols block.
//
// Bitwise contract: on finite inputs every column of a block primitive
// reproduces the exact per-element operation sequence of kernel.Assemble
// followed by the matching internal/mat product (MulVecAdd, MulTVecAdd,
// MulVecAddTwin), including mat's 4-accumulator dot grouping, its
// sequential tails, and the transposed products' zero-multiplier skips; on
// any input every column runs the same code as the width-1 call on that
// column. The equivalence suites in this package and internal/core pin this
// digit for digit.

package kernel

import (
	"math"

	"h2ds/internal/mat"
	"h2ds/internal/pointset"
)

// fusedChunk is the panel width of the fused evaluation loops: kernel values
// are produced into stack buffers of this many entries. 64 entries = 512
// bytes per buffer, small enough that the distance, evaluation, and
// accumulation passes all stay in L1, and a multiple of 4 so chunking never
// splits dot's accumulator lanes.
const fusedChunk = 64

// Coordinate panels. Every fused loop reads a block's column points from
// one contiguous panel — d values per point, in column order — resolved once
// per block, instead of looking each column up through the index set for
// every row. A consecutive index run (a leaf range of the permuted tree
// points) is a subslice of the point coordinates, read in place; any other
// index set (a coupling block's skeleton) is gathered once per block into
// the caller's scratch tile (Assemble, which has no caller scratch, gathers
// per 64-column chunk into a stack buffer).

// isRun reports whether cols is the consecutive run cols[0], cols[0]+1, ….
func isRun(cols []int) bool {
	for t, j := range cols {
		if j != cols[0]+t {
			return false
		}
	}
	return true
}

// colPanel returns the coordinate panel of y's points cols: in place for a
// consecutive run, otherwise gathered into buf (at least d·len(cols) long).
func colPanel(y *pointset.Points, cols []int, buf []float64) []float64 {
	d := y.Dim
	if len(cols) == 0 {
		return nil
	}
	if isRun(cols) {
		return y.Coords[cols[0]*d : (cols[0]+len(cols))*d]
	}
	p := buf[:d*len(cols)]
	for t, j := range cols {
		copy(p[t*d:t*d+d], y.Coords[j*d:j*d+d])
	}
	return p
}

// colScratch shapes buf for one block over the columns cols and resolves
// their panel: buf holds work rows of len(cols) scratch and, when cols is
// not a consecutive run, d more rows holding the gathered panel. It returns
// the work rows and the panel.
func colScratch(buf *mat.Dense, work int, y *pointset.Points, cols []int) (scratch, p []float64) {
	L := len(cols)
	rows := work
	if !isRun(cols) {
		rows += y.Dim
	}
	buf.Reshape(rows, L)
	return buf.Data[:work*L], colPanel(y, cols, buf.Data[work*L:])
}

// panelDist fills r2[t] with the squared distance between xi and point t of
// the panel p, accumulating the axes in order — the order of the per-entry
// distance loops, so the values are bitwise theirs. d == 3 runs the AVX
// transpose body (mat.Dist3Chunk).
func panelDist(r2, xi, p []float64) {
	d := len(xi)
	if d == 3 {
		mat.Dist3Chunk(r2, xi, p)
		return
	}
	p = p[:d*len(r2)]
	for t := range r2 {
		q := p[t*d : t*d+d]
		s := 0.0
		for c, v := range xi {
			dd := v - q[c]
			s += dd * dd
		}
		r2[t] = s
	}
}

// panelEval fills dst[t] = K(xi, p_t) for the len(dst) points of the panel
// p; r2 is distance scratch of at least len(dst) entries. In 3-D the Coulomb
// kernels evaluate in the distance pass itself, and Exponential forms its
// exponent there (-sqrt(r2), which is Exponential.arg(math.Sqrt(r2)) bit for
// bit) and exponentiates it in place; every other case takes panelDist then
// evalChunk.
func panelEval(k Kernel, dst, r2, xi, p []float64) {
	if len(xi) == 3 {
		switch k.(type) {
		case Coulomb:
			mat.RecipSqrtDist3Chunk(dst, xi, p)
			return
		case CoulombCubed:
			mat.RecipCubeDist3Chunk(dst, xi, p)
			return
		case Exponential:
			mat.NegSqrtDist3Chunk(dst, xi, p)
			mat.ExpChunk(dst, dst)
			return
		}
	}
	r2 = r2[:len(dst)]
	panelDist(r2, xi, p)
	evalChunk(k, dst, r2)
}

// evalChunk fills dst[t] = K(sqrt(r2[t])) with the per-entry interface call
// devirtualized: the type switch runs once per chunk and each case is a
// call-free loop over the concrete kernel's formula (same operations in the
// same order, so the values are bitwise-identical to the interface path).
// The exp-family cases form their exponents into dst and exponentiate the
// chunk in place with mat.ExpChunk; the Matérn cases keep the scaled
// distances in r2, which evalChunk may overwrite. Kernels outside the switch
// fall back to the interface call per entry, which is the seed behavior.
func evalChunk(k Kernel, dst, r2 []float64) {
	dst = dst[:len(r2)]
	switch kk := k.(type) {
	case Coulomb:
		// mat.RecipSqrtChunk is the vector-width form of
		//   r := math.Sqrt(v); dst[t] = 0 if r == 0 else 1/r
		// (VSQRTPD/VDIVPD are correctly rounded, so it stays bitwise-equal
		// to the scalar loop).
		mat.RecipSqrtChunk(dst, r2)
	case CoulombCubed:
		mat.RecipCubeChunk(dst, r2)
	case Exponential:
		for t, v := range r2 {
			dst[t] = kk.arg(math.Sqrt(v))
		}
		mat.ExpChunk(dst, dst)
	case Gaussian:
		kk = kk.withDefaults()
		for t, v := range r2 {
			dst[t] = kk.arg(math.Sqrt(v))
		}
		mat.ExpChunk(dst, dst)
	case Matern32:
		kk = kk.withDefaults()
		for t, v := range r2 {
			r2[t] = kk.a(math.Sqrt(v))
			dst[t] = -r2[t]
		}
		mat.ExpChunk(dst, dst)
		for t, a := range r2 {
			dst[t] = matern32(a, dst[t])
		}
	case Matern52:
		kk = kk.withDefaults()
		for t, v := range r2 {
			r2[t] = kk.a(math.Sqrt(v))
			dst[t] = -r2[t]
		}
		mat.ExpChunk(dst, dst)
		for t, a := range r2 {
			dst[t] = matern52(a, dst[t])
		}
	case InverseMultiquadric:
		c := kk.C
		if c == 0 {
			c = 1
		}
		for t, v := range r2 {
			r := math.Sqrt(v)
			dst[t] = 1 / math.Sqrt(r*r+c*c)
		}
	case ThinPlate:
		for t, v := range r2 {
			r := math.Sqrt(v)
			if r == 0 {
				dst[t] = 0
				continue
			}
			dst[t] = r * r * math.Log(r)
		}
	default:
		for t, v := range r2 {
			dst[t] = k.EvalDist(math.Sqrt(v))
		}
	}
}

// pairChunk fills dst[t] = K(xi, p_t) for general (non-radial) Pairwise
// kernels: one EvalPair per panel point, as assemblePair does per entry.
func pairChunk(k Pairwise, dst, xi, p []float64) {
	d := len(xi)
	for t := range dst {
		dst[t] = k.EvalPair(xi, p[t*d:t*d+d])
	}
}

// evaluator is a block's kernel with its radial form resolved once: radial
// kernels take panelEval, other Pairwise kernels pairChunk.
type evaluator struct {
	pk Pairwise
	rk Kernel // nil when pk is not radial
}

func newEvaluator(pk Pairwise) evaluator {
	rk, _ := pk.(Kernel)
	return evaluator{pk: pk, rk: rk}
}

// fill sets dst[t] = K(xi, p_t) for the len(dst) points of the panel p; r2
// is distance scratch of at least len(dst) entries.
func (e evaluator) fill(dst, r2, xi, p []float64) {
	if e.rk != nil {
		panelEval(e.rk, dst, r2, xi, p)
		return
	}
	pairChunk(e.pk, dst, xi, p)
}

// rowDot returns Σ_t K(xi, p_t)·v[t] over the len(v) points of the panel p
// (RowApply's body) in dot's grouping — four lane accumulators over the
// 4-aligned prefix (chunk lengths there are multiples of 4, so the lane
// mapping never slips), reduced as (s0+s1)+(s2+s3), then the sequential
// tail. r2 and kb are chunk scratch.
func (e evaluator) rowDot(xi, p, v []float64, r2, kb *[fusedChunk]float64) float64 {
	d := len(xi)
	L := len(v)
	U := L &^ 3
	var acc [4]float64
	for b0 := 0; b0 < U; b0 += fusedChunk {
		b1 := min(b0+fusedChunk, U)
		kk := kb[:b1-b0]
		e.fill(kk, r2[:], xi, p[b0*d:b1*d])
		mat.DotAcc4(kk, v[b0:b1], &acc)
	}
	s := (acc[0] + acc[1]) + (acc[2] + acc[3])
	if U == L {
		return s
	}
	kt := kb[:L-U]
	e.fill(kt, r2[:], xi, p[U*d:L*d])
	for t, kv := range kt {
		s += kv * v[U+t]
	}
	return s
}

// fillRow evaluates one whole tile row, row[t] = K(xi, p_t), a chunk of
// fusedChunk entries at a time; r2 is chunk scratch.
func (e evaluator) fillRow(row, xi, p []float64, r2 *[fusedChunk]float64) {
	d := len(xi)
	for b0 := 0; b0 < len(row); b0 += fusedChunk {
		b1 := min(b0+fusedChunk, len(row))
		e.fill(row[b0:b1], r2[:], xi, p[b0*d:b1*d])
	}
}

// Batch panels. The batch primitives below take their right-hand sides and
// outputs as column-major panels: a k-by-n mat.Dense whose row t is the
// contiguous right-hand side t. They evaluate each tile row once per batch
// into buf (caller-owned scratch, reshaped here, which also holds a gathered
// column panel) and then run the vector primitives' grouping over each
// column — the forward side through dot, the transposed side through
// mat.AxpyChunk with a zero-multiplier skip — so column t of every batch
// product is the width-1 product of column t, bit for bit on any input, by
// construction. On finite inputs the width-1 products also equal Assemble
// followed by the stored-block products; where NaNs meet, the separately
// compiled bodies may propagate different NaN payloads.

// BlockMulAdd computes C += K(x[rows], y[cols]) * B for a batch of
// right-hand sides: C is k x len(rows) and B is k x len(cols), one column
// per row. On finite inputs, column t equals Assemble + mat.MulVecAdd on
// row t of B and C.
func BlockMulAdd(c *mat.Dense, pk Pairwise, x *pointset.Points, rows []int, y *pointset.Points, cols []int, b *mat.Dense, buf *mat.Dense) {
	e := newEvaluator(pk)
	row, p := colScratch(buf, 1, y, cols)
	d := x.Dim
	var r2 [fusedChunk]float64
	for a, i := range rows {
		e.fillRow(row, x.Coords[i*d:i*d+d], p, &r2)
		for t := range b.Rows {
			c.Row(t)[a] += dot(row, b.Row(t))
		}
	}
}

// BlockTMulAdd computes C += K(x[rows], y[cols])ᵀ * B: C is k x len(cols)
// and B is k x len(rows), one column per row. Each tile row is added into
// every column whose multiplier is nonzero, and a row no column needs is not
// evaluated. On finite inputs, column t equals Assemble + mat.MulTVecAdd on
// row t of B and C.
func BlockTMulAdd(c *mat.Dense, pk Pairwise, x *pointset.Points, rows []int, y *pointset.Points, cols []int, b *mat.Dense, buf *mat.Dense) {
	e := newEvaluator(pk)
	row, p := colScratch(buf, 1, y, cols)
	d := x.Dim
	var r2 [fusedChunk]float64
	for a, i := range rows {
		if !anyNonzero(b, a) {
			continue
		}
		e.fillRow(row, x.Coords[i*d:i*d+d], p, &r2)
		for t := range b.Rows {
			if bv := b.Row(t)[a]; bv != 0 {
				mat.AxpyChunk(c.Row(t), bv, row)
			}
		}
	}
}

// BlockMulAddTwin applies one block in both orientations to a batch of
// right-hand sides while evaluating each entry once: CR += K·BC and
// CC += Kᵀ·BR with K = K(x[rows], y[cols]), panels as in BlockMulAdd and
// BlockTMulAdd. It is bitwise-identical to BlockMulAdd(CR, …, BC) followed by
// BlockTMulAdd(CC, …, BR), and on finite inputs column t equals Assemble +
// mat.MulVecAddTwin. CR and CC must not overlap.
func BlockMulAddTwin(cR, cC *mat.Dense, pk Pairwise, x *pointset.Points, rows []int, y *pointset.Points, cols []int, bC, bR *mat.Dense, buf *mat.Dense) {
	e := newEvaluator(pk)
	row, p := colScratch(buf, 1, y, cols)
	d := x.Dim
	var r2 [fusedChunk]float64
	for a, i := range rows {
		e.fillRow(row, x.Coords[i*d:i*d+d], p, &r2)
		for t := range bC.Rows {
			cR.Row(t)[a] += dot(row, bC.Row(t))
			if bv := bR.Row(t)[a]; bv != 0 {
				mat.AxpyChunk(cC.Row(t), bv, row)
			}
		}
	}
}

// dot returns row·v in mat's dot grouping: four lane accumulators over the
// 4-aligned prefix, reduced as (s0+s1)+(s2+s3), then the sequential tail.
func dot(row, v []float64) float64 {
	L := len(v)
	U := L &^ 3
	var acc [4]float64
	mat.DotAcc4(row[:U], v[:U], &acc)
	s := (acc[0] + acc[1]) + (acc[2] + acc[3])
	for t := U; t < L; t++ {
		s += row[t] * v[t]
	}
	return s
}

// anyNonzero reports whether any column of the panel b has a nonzero
// multiplier at position a.
func anyNonzero(b *mat.Dense, a int) bool {
	for t := range b.Rows {
		if b.Row(t)[a] != 0 {
			return true
		}
	}
	return false
}
