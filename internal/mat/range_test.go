package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// rowBlockViewCases drives the equivalence the up and down sweeps rely on
// when they apply one child's transfer block as a Dense view over a
// contiguous row run of the parent's stacked block. Row counts 0–40
// straddle the 4-row and 2-row groups, column counts the dot and axpy
// dispatch thresholds; multipliers are random, +0, −0 or a mix,
// accumulators start with −0 entries (so a zero multiplier that is not
// skipped turns them to +0), one stacked block carries an Inf (so 0·Inf
// would show as NaN), and the AVX path runs on and off. check gets the
// view, the stacked block it lies in, the view's first row in it, and
// generators for multipliers and accumulators of a given length.
func rowBlockViewCases(t *testing.T, seed int64, check func(tag string, view, stacked *Dense, off int, multipliers func(int) []float64, accumulators func(int) []float64)) {
	defer SetSIMD(SetSIMD(true))
	rng := rand.New(rand.NewSource(seed))
	negZero := math.Copysign(0, -1)
	rnd := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		return v
	}
	accumulators := func(n int) []float64 {
		v := rnd(n)
		for i := 0; i < n; i += 2 {
			v[i] = negZero
		}
		return v
	}
	for _, simd := range []bool{true, false} {
		SetSIMD(simd)
		for _, cols := range []int{1, 3, 4, 7, 8, 11, 12, 13, 16, 33, 64, 67} {
			for rows := 0; rows <= 40; rows++ {
				off := rng.Intn(5)
				stacked := randDense(rng, off+rows+rng.Intn(5), cols)
				if rows > 0 && rows%7 == 0 {
					stacked.Set(off+rows/2, cols/2, math.Inf(1))
				}
				view := &Dense{Rows: rows, Cols: cols, Data: stacked.Data[off*cols : (off+rows)*cols]}
				for _, kind := range []string{"random", "+0", "-0", "mixed"} {
					multipliers := func(n int) []float64 {
						v := rnd(n)
						for i := range v {
							switch {
							case kind == "+0", kind == "mixed" && i%3 == 0:
								v[i] = 0
							case kind == "-0", kind == "mixed" && i%5 == 1:
								v[i] = negZero
							}
						}
						return v
					}
					tag := fmt.Sprintf("simd=%v %dx%d %s", simd, rows, cols, kind)
					check(tag, view, stacked, off, multipliers, accumulators)
				}
			}
		}
	}
}

// TestMulVecAddRange pins MulVecAdd on a contiguous row-block view against
// the per-row dot loop over the stacked block, bit for bit.
func TestMulVecAddRange(t *testing.T) {
	rowBlockViewCases(t, 60, func(tag string, view, stacked *Dense, off int, multipliers, accumulators func(int) []float64) {
		x := multipliers(view.Cols)
		got := accumulators(view.Rows)
		want := append([]float64(nil), got...)
		MulVecAdd(got, view, x)
		for i := range view.Rows {
			want[i] += dot(stacked.Row(off+i), x)
		}
		twinBitsEqual(t, tag+" MulVecAdd", got, want)
	})
}

// TestMulTVecAddRange pins MulTVecAdd on a contiguous row-block view against
// the per-row axpy loop over the stacked block that skips zero multipliers,
// bit for bit.
func TestMulTVecAddRange(t *testing.T) {
	rowBlockViewCases(t, 61, func(tag string, view, stacked *Dense, off int, multipliers, accumulators func(int) []float64) {
		x := multipliers(view.Rows)
		got := accumulators(view.Cols)
		want := append([]float64(nil), got...)
		MulTVecAdd(got, view, x)
		for i := range view.Rows {
			if x[i] != 0 {
				axpy(want, x[i], stacked.Row(off+i))
			}
		}
		twinBitsEqual(t, tag+" MulTVecAdd", got, want)
	})
}
