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
// entries live in a stack buffer that never leaves L1. Only a panel of the
// tile ever exists — for the vector paths a 64-entry chunk, for the batch
// path one tile row — instead of the full rows x cols block.
//
// Bitwise contract: every primitive reproduces the exact per-element
// operation sequence of kernel.Assemble followed by the matching internal/mat
// product (MulVecAdd, MulTVecAdd, MulAddTo), including mat's 4-accumulator
// dot grouping, its sequential tails, and MulTVecAdd's per-row zero skips.
// The equivalence suites in this package and internal/core pin this digit
// for digit.

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

// distChunk fills r2[t] with the squared distance between the point at xi
// and y's point cols[t], mirroring the per-dimension accumulation order of
// assemble2/assemble3/assembleGeneric exactly.
func distChunk(r2 []float64, xi []float64, y *pointset.Points, cols []int, d int) {
	coords := y.Coords
	switch d {
	case 2:
		x0, x1 := xi[0], xi[1]
		for t, j := range cols {
			yj := coords[j*2 : j*2+2]
			d0 := x0 - yj[0]
			d1 := x1 - yj[1]
			r2[t] = d0*d0 + d1*d1
		}
	case 3:
		x0, x1, x2 := xi[0], xi[1], xi[2]
		for t, j := range cols {
			yj := coords[j*3 : j*3+3]
			d0 := x0 - yj[0]
			d1 := x1 - yj[1]
			d2 := x2 - yj[2]
			r2[t] = d0*d0 + d1*d1 + d2*d2
		}
	default:
		for t, j := range cols {
			yj := coords[j*d : j*d+d]
			s := 0.0
			for c, v := range xi {
				dd := v - yj[c]
				s += dd * dd
			}
			r2[t] = s
		}
	}
}

// distChunkSeq is distChunk for the contiguous index range [j0, j0+len(r2)),
// used by RowApply where the column set is every point.
func distChunkSeq(r2 []float64, xi []float64, y *pointset.Points, j0, d int) {
	coords := y.Coords
	switch d {
	case 2:
		x0, x1 := xi[0], xi[1]
		for t := range r2 {
			yj := coords[(j0+t)*2 : (j0+t)*2+2]
			d0 := x0 - yj[0]
			d1 := x1 - yj[1]
			r2[t] = d0*d0 + d1*d1
		}
	case 3:
		x0, x1, x2 := xi[0], xi[1], xi[2]
		for t := range r2 {
			yj := coords[(j0+t)*3 : (j0+t)*3+3]
			d0 := x0 - yj[0]
			d1 := x1 - yj[1]
			d2 := x2 - yj[2]
			r2[t] = d0*d0 + d1*d1 + d2*d2
		}
	default:
		for t := range r2 {
			yj := coords[(j0+t)*d : (j0+t)*d+d]
			s := 0.0
			for c, v := range xi {
				dd := v - yj[c]
				s += dd * dd
			}
			r2[t] = s
		}
	}
}

// evalChunk fills dst[t] = K(sqrt(r2[t])) with the per-entry interface call
// devirtualized: the type switch runs once per chunk and each case is a
// call-free loop whose body is the concrete EvalDist inlined by hand (same
// operations in the same order, so the values are bitwise-identical to the
// interface path). Kernels outside the switch fall back to the interface
// call per entry, which is the seed behavior.
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
			dst[t] = math.Exp(-math.Sqrt(v))
		}
	case Gaussian:
		s := kk.Scale
		if s == 0 {
			s = 0.1
		}
		for t, v := range r2 {
			r := math.Sqrt(v)
			dst[t] = math.Exp(-r * r / s)
		}
	case Matern32:
		l := kk.Length
		if l == 0 {
			l = 1
		}
		sq3 := math.Sqrt(3)
		for t, v := range r2 {
			a := sq3 * math.Sqrt(v) / l
			if a > 700 {
				dst[t] = 0
				continue
			}
			dst[t] = (1 + a) * math.Exp(-a)
		}
	case Matern52:
		l := kk.Length
		if l == 0 {
			l = 1
		}
		sq5 := math.Sqrt(5)
		for t, v := range r2 {
			a := sq5 * math.Sqrt(v) / l
			if a > 700 {
				dst[t] = 0
				continue
			}
			dst[t] = (1 + a + a*a/3) * math.Exp(-a)
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

// pairChunk fills dst[t] = K(xi, y[cols[t]]) for general (non-radial)
// Pairwise kernels — the fused counterpart of assemblePair's inner loop.
func pairChunk(k Pairwise, dst []float64, xi []float64, y *pointset.Points, cols []int, d int) {
	for t, j := range cols {
		dst[t] = k.EvalPair(xi, y.Coords[j*d:j*d+d])
	}
}

// kernelChunk fills dst with kernel values between xi and y[cols], choosing
// the radial fused path or the pairwise fallback. r2 is chunk scratch.
func kernelChunk(rk Kernel, pk Pairwise, radial bool, dst, r2 []float64, xi []float64, y *pointset.Points, cols []int, d int) {
	if radial {
		distChunk(r2[:len(cols)], xi, y, cols, d)
		evalChunk(rk, dst, r2[:len(cols)])
		return
	}
	pairChunk(pk, dst[:len(cols)], xi, y, cols, d)
}

// evalOne returns the single kernel value K(xi, y[j]) with the same distance
// accumulation as the chunk paths. Only the <=3 per-row tail entries of the
// fused dot go through here, so the interface call is irrelevant.
func evalOne(rk Kernel, pk Pairwise, radial bool, xi []float64, y *pointset.Points, j, d int) float64 {
	yj := y.Coords[j*d : j*d+d]
	if !radial {
		return pk.EvalPair(xi, yj)
	}
	switch d {
	case 2:
		d0 := xi[0] - yj[0]
		d1 := xi[1] - yj[1]
		return rk.EvalDist(math.Sqrt(d0*d0 + d1*d1))
	case 3:
		d0 := xi[0] - yj[0]
		d1 := xi[1] - yj[1]
		d2 := xi[2] - yj[2]
		return rk.EvalDist(math.Sqrt(d0*d0 + d1*d1 + d2*d2))
	default:
		s := 0.0
		for c, v := range xi {
			dd := v - yj[c]
			s += dd * dd
		}
		return rk.EvalDist(math.Sqrt(s))
	}
}

// BlockVecAdd computes out[a] += Σ_b K(x[rows[a]], y[cols[b]]) * v[b] — the
// fused form of Assemble + mat.MulVecAdd, bitwise-identical to it. out is
// indexed by row position (len(rows)), v by column position (len(cols)).
func BlockVecAdd(out []float64, pk Pairwise, x *pointset.Points, rows []int, y *pointset.Points, cols []int, v []float64) {
	blockVecAdd(out, pk, x, rows, y, cols, v, false)
}

// BlockVecAddFMA is BlockVecAdd with fused multiply-adds (one rounding per
// multiply-add instead of two) — the Config.FastMath accumulation, NOT
// bitwise-compatible with the default path.
func BlockVecAddFMA(out []float64, pk Pairwise, x *pointset.Points, rows []int, y *pointset.Points, cols []int, v []float64) {
	blockVecAdd(out, pk, x, rows, y, cols, v, true)
}

func blockVecAdd(out []float64, pk Pairwise, x *pointset.Points, rows []int, y *pointset.Points, cols []int, v []float64, fma bool) {
	rk, radial := pk.(Kernel)
	d := x.Dim
	L := len(cols)
	U := L &^ 3 // end of dot's unrolled region; [U, L) is the sequential tail
	var r2buf, kbuf [fusedChunk]float64
	for a, i := range rows {
		xi := x.Coords[i*d : i*d+d]
		// acc's four lanes are dot's accumulators s0..s3; chunk lengths
		// inside [0, U) are multiples of 4, so the lane mapping never slips.
		var acc [4]float64
		for b0 := 0; b0 < U; b0 += fusedChunk {
			b1 := min(b0+fusedChunk, U)
			kernelChunk(rk, pk, radial, kbuf[:], r2buf[:], xi, y, cols[b0:b1], d)
			vv := v[b0:b1]
			if fma {
				mat.DotAcc4FMA(kbuf[:len(vv)], vv, &acc)
			} else {
				mat.DotAcc4(kbuf[:len(vv)], vv, &acc)
			}
		}
		s := (acc[0] + acc[1]) + (acc[2] + acc[3])
		for b := U; b < L; b++ {
			if fma {
				s = math.FMA(evalOne(rk, pk, radial, xi, y, cols[b], d), v[b], s)
			} else {
				s += evalOne(rk, pk, radial, xi, y, cols[b], d) * v[b]
			}
		}
		out[a] += s
	}
}

// TwinBufRows is the row count BlockVecAddTwin reshapes its scratch buffer
// to: one kernel-row panel plus the four transposed-dot lanes.
const TwinBufRows = 5

// BlockVecAddTwin applies one block of a radial kernel in both orientations
// while evaluating each entry once: outR[a] += Σ_b K(x[rows[a]], y[cols[b]])
// vc[b] and outC[b] += Σ_a K(y[cols[b]], x[rows[a]]) vr[a]. It is
// bitwise-identical to BlockVecAdd(outR, k, x, rows, y, cols, vc) followed
// by BlockVecAdd(outC, k, y, cols, x, rows, vr): a radial kernel sees the
// same squared distance from either side ((a-b)² == (b-a)² exactly), the row
// side reduces through dot's grouping, and the column side reproduces the
// second call's 4-accumulator dot through mat.TwinRow's lanes. Each tile
// row is evaluated into buf (reshaped to TwinBufRows x len(cols), so only a
// one-row panel ever exists). outR and outC must not overlap.
func BlockVecAddTwin(outR, outC []float64, k Kernel, x *pointset.Points, rows []int, y *pointset.Points, cols []int, vc, vr []float64, buf *mat.Dense) {
	d := x.Dim
	L := len(cols)
	buf.Reshape(TwinBufRows, L)
	row, lanes := buf.Data[:L], buf.Data[L:]
	var r2buf [fusedChunk]float64
	for a, i := range rows {
		xi := x.Coords[i*d : i*d+d]
		for b0 := 0; b0 < L; b0 += fusedChunk {
			b1 := min(b0+fusedChunk, L)
			distChunk(r2buf[:b1-b0], xi, y, cols[b0:b1], d)
			evalChunk(k, row[b0:b1], r2buf[:b1-b0])
		}
		outR[a] += mat.TwinRow(row, vc, vr[a], a, len(rows), lanes)
	}
	mat.TwinFlush(outC, len(rows), lanes)
}

// BlockTVecAdd computes out[b] += Σ_a K(x[rows[a]], y[cols[b]]) * v[a] — the
// fused form of Assemble + mat.MulTVecAdd, bitwise-identical to it,
// including the per-row zero skips (rows whose multiplier is zero are not
// evaluated at all, exactly as MulTVecAdd never touches them). out is
// indexed by column position, v by row position.
func BlockTVecAdd(out []float64, pk Pairwise, x *pointset.Points, rows []int, y *pointset.Points, cols []int, v []float64) {
	blockTVecAdd(out, pk, x, rows, y, cols, v, false)
}

// BlockTVecAddFMA is BlockTVecAdd with fused multiply-adds — the
// Config.FastMath accumulation, NOT bitwise-compatible with the default path.
func BlockTVecAddFMA(out []float64, pk Pairwise, x *pointset.Points, rows []int, y *pointset.Points, cols []int, v []float64) {
	blockTVecAdd(out, pk, x, rows, y, cols, v, true)
}

func blockTVecAdd(out []float64, pk Pairwise, x *pointset.Points, rows []int, y *pointset.Points, cols []int, v []float64, fma bool) {
	rk, radial := pk.(Kernel)
	d := x.Dim
	R := len(rows)
	var r2buf, k0, k1, k2, k3 [fusedChunk]float64
	xrow := func(r int) []float64 {
		i := rows[r]
		return x.Coords[i*d : i*d+d]
	}
	// pair applies rows r and r+1 with multipliers x0, x1 under axpyPair's
	// zero-skip cases; single applies one row under axpy. The accumulation
	// loops dispatch through mat's chunk helpers (AVX when available).
	single := func(r int, xv float64) {
		xi := xrow(r)
		for b0 := 0; b0 < len(cols); b0 += fusedChunk {
			b1 := min(b0+fusedChunk, len(cols))
			kernelChunk(rk, pk, radial, k0[:], r2buf[:], xi, y, cols[b0:b1], d)
			oo := out[b0:b1]
			if fma {
				mat.AxpyChunkFMA(oo, xv, k0[:len(oo)])
			} else {
				mat.AxpyChunk(oo, xv, k0[:len(oo)])
			}
		}
	}
	pair := func(r int, x0, x1 float64) {
		switch {
		case x0 == 0 && x1 == 0:
		case x0 == 0:
			single(r+1, x1)
		case x1 == 0:
			single(r, x0)
		default:
			xi0, xi1 := xrow(r), xrow(r+1)
			for b0 := 0; b0 < len(cols); b0 += fusedChunk {
				b1 := min(b0+fusedChunk, len(cols))
				cc := cols[b0:b1]
				kernelChunk(rk, pk, radial, k0[:], r2buf[:], xi0, y, cc, d)
				kernelChunk(rk, pk, radial, k1[:], r2buf[:], xi1, y, cc, d)
				oo := out[b0:b1]
				if fma {
					mat.Axpy2ChunkFMA(oo, x0, k0[:len(oo)], x1, k1[:len(oo)])
				} else {
					mat.Axpy2Chunk(oo, x0, k0[:len(oo)], x1, k1[:len(oo)])
				}
			}
		}
	}
	r := 0
	for ; r+4 <= R; r += 4 {
		x0, x1, x2, x3 := v[r], v[r+1], v[r+2], v[r+3]
		if x0 != 0 && x1 != 0 && x2 != 0 && x3 != 0 {
			xi0, xi1, xi2, xi3 := xrow(r), xrow(r+1), xrow(r+2), xrow(r+3)
			for b0 := 0; b0 < len(cols); b0 += fusedChunk {
				b1 := min(b0+fusedChunk, len(cols))
				cc := cols[b0:b1]
				kernelChunk(rk, pk, radial, k0[:], r2buf[:], xi0, y, cc, d)
				kernelChunk(rk, pk, radial, k1[:], r2buf[:], xi1, y, cc, d)
				kernelChunk(rk, pk, radial, k2[:], r2buf[:], xi2, y, cc, d)
				kernelChunk(rk, pk, radial, k3[:], r2buf[:], xi3, y, cc, d)
				oo := out[b0:b1]
				if fma {
					mat.Axpy4ChunkFMA(oo, x0, k0[:len(oo)], x1, k1[:len(oo)], x2, k2[:len(oo)], x3, k3[:len(oo)])
				} else {
					mat.Axpy4Chunk(oo, x0, k0[:len(oo)], x1, k1[:len(oo)], x2, k2[:len(oo)], x3, k3[:len(oo)])
				}
			}
			continue
		}
		pair(r, x0, x1)
		pair(r+2, x2, x3)
	}
	for ; r+2 <= R; r += 2 {
		pair(r, v[r], v[r+1])
	}
	if r < R && v[r] != 0 {
		single(r, v[r])
	}
}

// BlockMulAdd computes C += K(x[rows], y[cols]) * B for a block of
// right-hand sides — the fused form of Assemble + mat.MulAddTo,
// bitwise-identical to it. Instead of the full rows x cols tile, only one
// tile row at a time is materialized into rowbuf (caller-owned scratch,
// reshaped here) and reused across every column of B, so the working set is
// one row panel regardless of tile size. C is len(rows) x B.Cols and B is
// len(cols) x B.Cols.
func BlockMulAdd(c *mat.Dense, pk Pairwise, x *pointset.Points, rows []int, y *pointset.Points, cols []int, b *mat.Dense, rowbuf *mat.Dense) {
	blockMulAdd(c, pk, x, rows, y, cols, b, rowbuf, false)
}

// BlockMulAddFMA is BlockMulAdd with fused multiply-adds — the
// Config.FastMath accumulation, NOT bitwise-compatible with the default path.
func BlockMulAddFMA(c *mat.Dense, pk Pairwise, x *pointset.Points, rows []int, y *pointset.Points, cols []int, b *mat.Dense, rowbuf *mat.Dense) {
	blockMulAdd(c, pk, x, rows, y, cols, b, rowbuf, true)
}

func blockMulAdd(c *mat.Dense, pk Pairwise, x *pointset.Points, rows []int, y *pointset.Points, cols []int, b *mat.Dense, rowbuf *mat.Dense, fma bool) {
	rk, radial := pk.(Kernel)
	d := x.Dim
	n := b.Cols
	rowbuf.Reshape(1, len(cols))
	row := rowbuf.Data
	var r2buf [fusedChunk]float64
	for a, i := range rows {
		xi := x.Coords[i*d : i*d+d]
		for b0 := 0; b0 < len(cols); b0 += fusedChunk {
			b1 := min(b0+fusedChunk, len(cols))
			kernelChunk(rk, pk, radial, row[b0:b1], r2buf[:], xi, y, cols[b0:b1], d)
		}
		crow := c.Row(a)
		if fma {
			for j := 0; j < n; j++ {
				crow[j] += mat.DotStrideFMA(row, b.Data, j, n)
			}
		} else {
			for j := 0; j < n; j++ {
				crow[j] += mat.DotStride(row, b.Data, j, n)
			}
		}
	}
}
