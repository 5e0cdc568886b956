package mat

import "fmt"

// Twin product: y_r += A x_c and y_c += Aᵀ x_r in ONE pass over A's rows.
//
// A symmetric nearfield pair (i, j) contributes B_ij b_j to y_i and
// B_ijᵀ b_i to y_j. Applied as two separate products, the stored block
// streams through the cache twice. The twin visits each row once and feeds
// both outputs from it, while reproducing the per-element operation
// sequence of the two separate products exactly — so swapping it in
// changes no bit of any result. (kernel.BlockMulAddTwin is its on-the-fly
// counterpart, with the same per-element sequence in every column.)

// MulVecAddTwin computes yr += a*xc and yc += aᵀ*xr in one pass over a's
// rows, bitwise-identical to MulVecAdd(yr, a, xc) followed by
// MulTVecAdd(yc, a, xr): rows go to yr through dot2/dot, and to yc through
// MulTVecAdd's axpy4/axpyPair/axpy grouping, zero-multiplier skips
// included. yr and yc must not overlap.
func MulVecAddTwin(yr, yc []float64, a *Dense, xc, xr []float64) {
	if len(xc) != a.Cols || len(yr) != a.Rows || len(xr) != a.Rows || len(yc) != a.Cols {
		panic(fmt.Sprintf("mat: mulvecaddtwin shape mismatch %dx%d, xc %d, yr %d, xr %d, yc %d",
			a.Rows, a.Cols, len(xc), len(yr), len(xr), len(yc)))
	}
	i := 0
	for ; i+4 <= a.Rows; i += 4 {
		r0, r1, r2, r3 := a.Row(i), a.Row(i+1), a.Row(i+2), a.Row(i+3)
		s0, s1 := dot2(r0, r1, xc)
		s2, s3 := dot2(r2, r3, xc)
		yr[i] += s0
		yr[i+1] += s1
		yr[i+2] += s2
		yr[i+3] += s3
		x0, x1, x2, x3 := xr[i], xr[i+1], xr[i+2], xr[i+3]
		if x0 != 0 && x1 != 0 && x2 != 0 && x3 != 0 {
			axpy4(yc, x0, r0, x1, r1, x2, r2, x3, r3)
			continue
		}
		axpyPair(yc, a, i, x0, x1)
		axpyPair(yc, a, i+2, x2, x3)
	}
	for ; i+2 <= a.Rows; i += 2 {
		s0, s1 := dot2(a.Row(i), a.Row(i+1), xc)
		yr[i] += s0
		yr[i+1] += s1
		axpyPair(yc, a, i, xr[i], xr[i+1])
	}
	if i < a.Rows {
		yr[i] += dot(a.Row(i), xc)
		if xr[i] != 0 {
			axpy(yc, xr[i], a.Row(i))
		}
	}
}
