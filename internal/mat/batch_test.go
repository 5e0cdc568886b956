package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func TestMulAddToMatchesMul(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, dims := range [][3]int{{1, 1, 1}, {3, 5, 2}, {8, 8, 8}, {17, 4, 9}, {4, 17, 1}} {
		m, n, k := dims[0], dims[1], dims[2]
		a := randDense(rng, m, n)
		b := randDense(rng, n, k)
		c := randDense(rng, m, k)
		want := Mul(a, b).Add(c.Clone())
		MulAddTo(c, a, b)
		for i := range want.Data {
			if math.Abs(c.Data[i]-want.Data[i]) > 1e-13 {
				t.Fatalf("%dx%dx%d: MulAddTo differs at %d: %g vs %g", m, n, k, i, c.Data[i], want.Data[i])
			}
		}
	}
}

func TestMulTAddToMatchesMul(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, dims := range [][3]int{{1, 1, 1}, {5, 3, 2}, {8, 8, 8}, {4, 17, 9}} {
		m, n, k := dims[0], dims[1], dims[2]
		a := randDense(rng, m, n) // c += aᵀ b : c is n x k, b is m x k
		b := randDense(rng, m, k)
		c := randDense(rng, n, k)
		want := Mul(a.T(), b).Add(c.Clone())
		MulTAddTo(c, a, b)
		for i := range want.Data {
			if math.Abs(c.Data[i]-want.Data[i]) > 1e-13 {
				t.Fatalf("%dx%dx%d: MulTAddTo differs at %d", m, n, k, i)
			}
		}
	}
}

func TestMulRangeAddToMatchesSubmatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := randDense(rng, 12, 5)
	b := randDense(rng, 5, 3)
	r0, r1 := 4, 9
	c := randDense(rng, r1-r0, 3)
	want := Mul(a.SubCopy(r0, r1, 0, 5), b).Add(c.Clone())
	MulRangeAddTo(c, a, r0, r1, b)
	for i := range want.Data {
		if math.Abs(c.Data[i]-want.Data[i]) > 1e-13 {
			t.Fatalf("MulRangeAddTo differs at %d", i)
		}
	}
}

func TestMulTRangeAddToMatchesSubmatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	a := randDense(rng, 12, 5)
	r0, r1 := 3, 10
	b := randDense(rng, r1-r0, 3)
	c := randDense(rng, 5, 3)
	want := Mul(a.SubCopy(r0, r1, 0, 5).T(), b).Add(c.Clone())
	MulTRangeAddTo(c, a, r0, r1, b)
	for i := range want.Data {
		if math.Abs(c.Data[i]-want.Data[i]) > 1e-13 {
			t.Fatalf("MulTRangeAddTo differs at %d", i)
		}
	}
}

// zeroed returns a copy of v with exact +0 and -0 entries injected: a
// leading all-zero quad, a zero in every third slot, a -0 in every fifth,
// and a zero last element — every zero-skip case of the transposed
// products.
func zeroed(v []float64) []float64 {
	w := append([]float64(nil), v...)
	for i := range w {
		switch {
		case i < 4 || i%3 == 2 || i == len(w)-1:
			w[i] = 0
		case i%5 == 1:
			w[i] = math.Copysign(0, -1)
		}
	}
	return w
}

// rngVec returns n standard normal draws.
func rngVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// panelOf returns an n-by-k panel whose column 0 is v and whose other
// columns are random.
func panelOf(rng *rand.Rand, v []float64, k int) *Dense {
	p := NewDenseData(len(v), k, rngVec(rng, len(v)*k))
	for i, x := range v {
		p.Data[i*k] = x
	}
	return p
}

// col0 returns a copy of column 0 of p.
func col0(p *Dense) []float64 {
	c := make([]float64, p.Rows)
	for i := range c {
		c[i] = p.Data[i*p.Cols]
	}
	return c
}

// TestWidthOneMatchesVectorForms pins the width-1 dispatch of the panel
// products. Each one-column call must equal its vector form bit for bit,
// and so must column 0 of the same call at width 3, which runs the strided
// panel loops and skips zero block entries where the vector forms skip
// zero multipliers. The table covers zero and -0 multipliers, zero and -0
// block entries, and accumulators that start at +0 or random values (never
// -0, the precondition of MulTAddTo's zero-skip argument), with the AVX
// path on and off.
func TestWidthOneMatchesVectorForms(t *testing.T) {
	defer SetSIMD(SetSIMD(true))
	rng := rand.New(rand.NewSource(11))
	for _, simd := range []bool{true, false} {
		SetSIMD(simd)
		for _, sh := range [][2]int{{1, 1}, {3, 5}, {9, 7}, {17, 4}, {64, 65}} {
			rows, cols := sh[0], sh[1]
			r0, r1 := rows/3, rows
			for _, zeros := range []bool{false, true} {
				a := randDense(rng, rows, cols)
				inputs := func(n int) []float64 {
					if zeros {
						return zeroed(rngVec(rng, n))
					}
					return rngVec(rng, n)
				}
				if zeros {
					a.Data = zeroed(a.Data)
				}
				tag := fmt.Sprintf("simd=%v %dx%d zeros=%v", simd, rows, cols, zeros)
				for _, tc := range []struct {
					name       string
					yLen, xLen int
					vec        func(y, x []float64)
					wide       func(c, b *Dense)
				}{
					{"MulAddTo", rows, cols,
						func(y, x []float64) { MulVecAdd(y, a, x) }, func(c, b *Dense) { MulAddTo(c, a, b) }},
					{"MulTAddTo", cols, rows,
						func(y, x []float64) { MulTVecAdd(y, a, x) }, func(c, b *Dense) { MulTAddTo(c, a, b) }},
					{"MulRangeAddTo", r1 - r0, cols,
						func(y, x []float64) { MulVecAddRange(y, a, r0, r1, x) }, func(c, b *Dense) { MulRangeAddTo(c, a, r0, r1, b) }},
					{"MulTRangeAddTo", cols, r1 - r0,
						func(y, x []float64) { MulTVecAddRange(y, a, r0, r1, x) }, func(c, b *Dense) { MulTRangeAddTo(c, a, r0, r1, b) }},
				} {
					for _, acc := range [][]float64{make([]float64, tc.yLen), rngVec(rng, tc.yLen)} {
						x := inputs(tc.xLen)
						want := append([]float64(nil), acc...)
						tc.vec(want, x)
						for _, k := range []int{1, 3} {
							c := panelOf(rng, acc, k)
							tc.wide(c, panelOf(rng, x, k))
							twinBitsEqual(t, fmt.Sprintf("%s %s k=%d", tc.name, tag, k), col0(c), want)
						}
					}
				}
				xc, xr := inputs(cols), inputs(rows)
				wantR, wantC := make([]float64, rows), make([]float64, cols)
				MulVecAddTwin(wantR, wantC, a, xc, xr)
				for _, k := range []int{1, 3} {
					cR, cC := panelOf(rng, make([]float64, rows), k), panelOf(rng, make([]float64, cols), k)
					MulAddToTwin(cR, cC, a, panelOf(rng, xc, k), panelOf(rng, xr, k))
					twinBitsEqual(t, fmt.Sprintf("MulAddToTwin rows %s k=%d", tag, k), col0(cR), wantR)
					twinBitsEqual(t, fmt.Sprintf("MulAddToTwin cols %s k=%d", tag, k), col0(cC), wantC)
				}
			}
		}
	}
}

func TestMulAddToShapePanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"MulAddTo":       func() { MulAddTo(NewDense(2, 2), NewDense(2, 3), NewDense(4, 2)) },
		"MulTAddTo":      func() { MulTAddTo(NewDense(3, 2), NewDense(2, 4), NewDense(2, 2)) },
		"MulRangeAddTo":  func() { MulRangeAddTo(NewDense(2, 2), NewDense(5, 3), 1, 4, NewDense(3, 2)) },
		"MulTRangeAddTo": func() { MulTRangeAddTo(NewDense(3, 2), NewDense(5, 3), 1, 4, NewDense(2, 2)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected shape panic", name)
				}
			}()
			fn()
		}()
	}
}
