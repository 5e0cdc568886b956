package mat

import (
	"math"
	"math/rand"
	"testing"
)

// twinSizes are the ragged row/column counts of the twin suites: every
// length around the 4-wide unroll, both sides of the 64-entry chunk and the
// SIMD dispatch thresholds, and two leaf-sized blocks.
var twinSizes = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 63, 64, 65, 125, 200}

// twinZeros returns a copy of v with zeros injected in every pattern the
// transposed side's skips distinguish: an all-zero quad, a zero in each
// position of a pair, and a zero last element.
func twinZeros(v []float64) []float64 {
	w := append([]float64(nil), v...)
	for i := range w {
		if i < 4 || i%3 == 2 || i == len(w)-1 {
			w[i] = 0
		}
	}
	return w
}

func twinBitsEqual(t *testing.T, tag string, got, want []float64) {
	t.Helper()
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d = %v want %v", tag, i, got[i], want[i])
		}
	}
}

// TestMulVecAddTwinBitwise pins the one-pass twin against its two separate
// products, bit for bit: MulVecAddTwin against MulVecAdd + MulTVecAdd
// (zero-multiplier skips included), over ragged shapes with the AVX path on
// and off.
func TestMulVecAddTwinBitwise(t *testing.T) {
	defer SetSIMD(SetSIMD(true))
	rng := rand.New(rand.NewSource(71))
	rnd := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		return v
	}
	for _, simd := range []bool{true, false} {
		SetSIMD(simd)
		for _, r := range twinSizes {
			for _, c := range twinSizes {
				a := NewDenseData(r, c, rnd(r*c))
				xc, xr := rnd(c), rnd(r)
				yr0, yc0 := rnd(r), rnd(c)
				// Negative zeros make a skipped row visible: -0 + 0*a is +0.
				for b := 0; b < c; b += 2 {
					yc0[b] = math.Copysign(0, -1)
				}
				for _, mult := range [][2][]float64{{xc, xr}, {twinZeros(xc), twinZeros(xr)}} {
					xc, xr := mult[0], mult[1]

					wantR, wantC := append([]float64(nil), yr0...), append([]float64(nil), yc0...)
					MulVecAdd(wantR, a, xc)
					MulTVecAdd(wantC, a, xr)
					gotR, gotC := append([]float64(nil), yr0...), append([]float64(nil), yc0...)
					MulVecAddTwin(gotR, gotC, a, xc, xr)
					twinBitsEqual(t, "twin/rows", gotR, wantR)
					twinBitsEqual(t, "twin/cols", gotC, wantC)
				}
			}
		}
	}
}
