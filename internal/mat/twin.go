package mat

import "fmt"

// Twin products: y_r += A x_c and y_c += Aᵀ x_r in ONE pass over A's rows.
//
// A symmetric nearfield pair (i, j) contributes B_ij b_j to y_i and
// B_ijᵀ b_i to y_j. Applied as two separate products, the block streams
// through the cache twice (stored) or is evaluated twice (on the fly). The
// twins below visit each row once and feed both outputs from it, while
// reproducing the per-element operation sequence of the two separate
// products exactly — so swapping them in changes no bit of any result.

// MulVecAddTwin computes yr += a*xc and yc += aᵀ*xr in one pass over a's
// rows, bitwise-identical to MulVecAdd(yr, a, xc) followed by
// MulTVecAdd(yc, a, xr): rows go to yr through dot2/dot, and to yc through
// MulTVecAdd's axpy4/axpyPair/axpy grouping, zero-multiplier skips
// included. yr and yc must not overlap.
func MulVecAddTwin(yr, yc []float64, a *Dense, xc, xr []float64) {
	twinShape("mulvecaddtwin", yr, yc, a, xc, xr)
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

// MulVecAddTwinDot computes yr += a*xc and yc += aᵀ*xr in one pass over a's
// rows, bitwise-identical to MulVecAdd(yr, a, xc) followed by
// MulTVecAddDot(yc, a, xr): both outputs take dot's 4-accumulator grouping,
// the transposed side through TwinRow's lanes. lanes is caller scratch of at
// least 4*a.Cols entries. yr and yc must not overlap.
func MulVecAddTwinDot(yr, yc []float64, a *Dense, xc, xr, lanes []float64) {
	twinShape("mulvecaddtwindot", yr, yc, a, xc, xr)
	for i := 0; i < a.Rows; i++ {
		yr[i] += TwinRow(a.Row(i), xc, xr[i], i, a.Rows, lanes)
	}
	TwinFlush(yc, a.Rows, lanes)
}

func twinShape(op string, yr, yc []float64, a *Dense, xc, xr []float64) {
	if len(xc) != a.Cols || len(yr) != a.Rows || len(xr) != a.Rows || len(yc) != a.Cols {
		panic(fmt.Sprintf("mat: %s shape mismatch %dx%d, xc %d, yr %d, xr %d, yc %d",
			op, a.Rows, a.Cols, len(xc), len(yr), len(xr), len(yc)))
	}
}

// TwinRow is one row step of the dot-order twin: it returns row·xc with
// dot's grouping, and adds xr·row into the transposed accumulation held in
// lanes, which reproduces, per output column, the 4-accumulator dot over
// the rows: row r < rows&^3 feeds lane r mod 4 (lanes[l*len(row):]); at the
// first tail row the four lanes reduce into lane 0 as (l0+l1)+(l2+l3), and
// tail rows add into it sequentially. Call it for r = 0, 1, ..., rows-1 in
// order (r == 0 clears the lanes), then TwinFlush. lanes needs at least
// 4*len(row) entries.
func TwinRow(row, xc []float64, xr float64, r, rows int, lanes []float64) float64 {
	n := len(row)
	lanes = lanes[:4*n]
	if r == 0 {
		clear(lanes)
	}
	if u := rows &^ 3; r < u {
		l := (r & 3) * n
		axpy(lanes[l:l+n], xr, row)
	} else {
		if r == u {
			twinReduce(lanes, n)
		}
		axpy(lanes[:n], xr, row)
	}
	return dot(row, xc)
}

// TwinFlush completes a TwinRow pass over rows rows: it reduces the lanes if
// no tail row did, then adds lane 0 into yc.
func TwinFlush(yc []float64, rows int, lanes []float64) {
	if rows == 0 {
		return
	}
	n := len(yc)
	if rows&3 == 0 {
		twinReduce(lanes, n)
	}
	for b, s := range lanes[:n] {
		yc[b] += s
	}
}

// twinReduce folds the four n-wide lanes into lane 0 with dot's
// (s0+s1)+(s2+s3) grouping.
func twinReduce(lanes []float64, n int) {
	l0, l1, l2, l3 := lanes[:n], lanes[n:2*n], lanes[2*n:3*n], lanes[3*n:4*n]
	for b := range l0 {
		l0[b] = (l0[b] + l1[b]) + (l2[b] + l3[b])
	}
}
