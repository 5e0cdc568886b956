package mat

import (
	"math"
	"math/rand"
	"testing"
)

// simdVec returns a deterministic random vector for the AVX-vs-scalar
// comparisons.
func simdVec(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// TestSIMDBitwiseScalar pins the central SIMD claim: with AVX on, every
// dispatched primitive returns results bitwise-identical to the scalar path,
// across lengths that cover below-threshold, 4-aligned, and ragged tails.
func TestSIMDBitwiseScalar(t *testing.T) {
	if !SIMDAvailable() {
		t.Skip("no AVX on this machine")
	}
	lengths := []int{1, 3, 4, 7, 8, 11, 12, 15, 16, 31, 64, 100, 257}
	for _, n := range lengths {
		row := simdVec(n, int64(1000+n))
		x := simdVec(n, int64(2000+n))
		x1 := simdVec(n, int64(3000+n))
		x2 := simdVec(n, int64(4000+n))
		x3 := simdVec(n, int64(5000+n))
		y0 := simdVec(n, int64(6000+n))

		SetSIMD(true)
		dotV := dot(row, x)
		d2a, d2b := dot2(row, x1, x)
		ya := append([]float64(nil), y0...)
		axpy(ya, 1.7, x)
		y2a := append([]float64(nil), y0...)
		axpy2(y2a, 1.7, x, -0.3, x1)
		y4a := append([]float64(nil), y0...)
		axpy4(y4a, 1.7, x, -0.3, x1, 0.9, x2, 2.2, x3)

		SetSIMD(false)
		dotS := dot(row, x)
		s2a, s2b := dot2(row, x1, x)
		ys := append([]float64(nil), y0...)
		axpy(ys, 1.7, x)
		y2s := append([]float64(nil), y0...)
		axpy2(y2s, 1.7, x, -0.3, x1)
		y4s := append([]float64(nil), y0...)
		axpy4(y4s, 1.7, x, -0.3, x1, 0.9, x2, 2.2, x3)
		SetSIMD(true)

		if dotV != dotS {
			t.Fatalf("n=%d: dot AVX %v != scalar %v", n, dotV, dotS)
		}
		if d2a != s2a || d2b != s2b {
			t.Fatalf("n=%d: dot2 AVX (%v,%v) != scalar (%v,%v)", n, d2a, d2b, s2a, s2b)
		}
		for i := range ya {
			if ya[i] != ys[i] {
				t.Fatalf("n=%d: axpy differs at %d", n, i)
			}
			if y2a[i] != y2s[i] {
				t.Fatalf("n=%d: axpy2 differs at %d", n, i)
			}
			if y4a[i] != y4s[i] {
				t.Fatalf("n=%d: axpy4 differs at %d", n, i)
			}
		}
	}
}

// TestSIMDChunkHelpersBitwise covers the exported fused-kernel helpers:
// DotAcc4 lane accumulation, the reciprocal chunk evaluations, including
// the zero-distance masking, and ExpChunk, including out-of-range lanes.
func TestSIMDChunkHelpersBitwise(t *testing.T) {
	if !SIMDAvailable() {
		t.Skip("no AVX on this machine")
	}
	for _, n := range []int{4, 8, 12, 16, 20, 64} {
		k := simdVec(n, int64(7000+n))
		v := simdVec(n, int64(8000+n))
		accA := [4]float64{0.1, -0.2, 0.3, -0.4}
		accS := accA
		SetSIMD(true)
		DotAcc4(k, v, &accA)
		SetSIMD(false)
		DotAcc4(k, v, &accS)
		SetSIMD(true)
		if accA != accS {
			t.Fatalf("n=%d: DotAcc4 AVX %v != scalar %v", n, accA, accS)
		}
	}
	for _, n := range []int{1, 4, 6, 8, 13, 64, 100} {
		r2 := make([]float64, n)
		rng := rand.New(rand.NewSource(int64(9000 + n)))
		for i := range r2 {
			r2[i] = rng.Float64() * 3
		}
		if n > 2 {
			r2[n/2] = 0 // exercise the zero-distance mask
		}
		dstA := make([]float64, n)
		dstS := make([]float64, n)
		cubeA := make([]float64, n)
		cubeS := make([]float64, n)
		SetSIMD(true)
		RecipSqrtChunk(dstA, r2)
		RecipCubeChunk(cubeA, r2)
		SetSIMD(false)
		RecipSqrtChunk(dstS, r2)
		RecipCubeChunk(cubeS, r2)
		SetSIMD(true)
		for i := range r2 {
			if dstA[i] != dstS[i] {
				t.Fatalf("n=%d: RecipSqrtChunk differs at %d: %v vs %v", n, i, dstA[i], dstS[i])
			}
			if cubeA[i] != cubeS[i] {
				t.Fatalf("n=%d: RecipCubeChunk differs at %d: %v vs %v", n, i, cubeA[i], cubeS[i])
			}
			want := 0.0
			if r := math.Sqrt(r2[i]); r != 0 {
				want = 1 / r
			}
			if dstS[i] != want {
				t.Fatalf("n=%d: scalar RecipSqrtChunk wrong at %d", n, i)
			}
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = -30 * r2[i]
		}
		if n > 5 {
			x[5] = -800 // a fallback lane in the second quad
		}
		expA := make([]float64, n)
		SetSIMD(true)
		ExpChunk(expA, x)
		SetSIMD(false)
		expS := append([]float64(nil), x...)
		ExpChunk(expS, expS)
		SetSIMD(true)
		for i, v := range x {
			if math.Float64bits(expA[i]) != math.Float64bits(expS[i]) || expS[i] != math.Exp(v) {
				t.Fatalf("n=%d: ExpChunk differs at %d: AVX %v scalar %v math.Exp %v", n, i, expA[i], expS[i], math.Exp(v))
			}
		}
	}
}

// TestSIMDDist3Bitwise pins the 3-D panel distance and its fused Coulomb
// forms: the AVX transpose body against the scalar loop and against the
// plain per-point formula, with coincident points for the zero masks and
// lengths around the 4-point step and the dispatch threshold.
func TestSIMDDist3Bitwise(t *testing.T) {
	defer SetSIMD(SetSIMD(true))
	for _, n := range []int{1, 3, 4, 5, 7, 8, 9, 12, 13, 63, 64, 65} {
		p := simdVec(3*n, int64(9500+n))
		xi := []float64{0.25, -0.5, 0.75}
		if n > 2 {
			copy(p[3*(n/2):], xi) // r2 == 0
		}
		want := make([]float64, n)
		for i := range want {
			d0, d1, d2 := xi[0]-p[3*i], xi[1]-p[3*i+1], xi[2]-p[3*i+2]
			want[i] = d0*d0 + d1*d1 + d2*d2
		}
		wantRS, wantRC := make([]float64, n), make([]float64, n)
		RecipSqrtChunk(wantRS, want)
		RecipCubeChunk(wantRC, want)
		for _, simd := range []bool{true, false} {
			SetSIMD(simd)
			r2, rs, rc := make([]float64, n), make([]float64, n), make([]float64, n)
			Dist3Chunk(r2, xi, p)
			RecipSqrtDist3Chunk(rs, xi, p)
			RecipCubeDist3Chunk(rc, xi, p)
			for i := range want {
				if math.Float64bits(r2[i]) != math.Float64bits(want[i]) ||
					math.Float64bits(rs[i]) != math.Float64bits(wantRS[i]) ||
					math.Float64bits(rc[i]) != math.Float64bits(wantRC[i]) {
					t.Fatalf("simd=%v n=%d point %d: got (%v %v %v) want (%v %v %v)",
						simd, n, i, r2[i], rs[i], rc[i], want[i], wantRS[i], wantRC[i])
				}
			}
		}
	}
}

// TestNegSqrtDist3Bitwise pins the Exponential kernel's fused distance pass
// against Dist3Chunk followed by the scalar -math.Sqrt, with the AVX path on
// and off, for every length 0..67 (every tail around the 4-point step, the
// dispatch threshold and the 64-entry chunk). Coincident points must give
// -0, which ExpChunk must turn into exactly 1.
func TestNegSqrtDist3Bitwise(t *testing.T) {
	defer SetSIMD(SetSIMD(true))
	xi := []float64{0.25, -0.5, 0.75}
	for n := 0; n <= 67; n++ {
		p := simdVec(3*n, int64(9700+n))
		for i := 0; i < n; i += 5 {
			copy(p[3*i:3*i+3], xi) // r2 == 0
		}
		for _, simd := range []bool{true, false} {
			SetSIMD(simd)
			want := make([]float64, n)
			Dist3Chunk(want, xi, p)
			for i, v := range want {
				want[i] = -math.Sqrt(v)
			}
			got := make([]float64, n)
			NegSqrtDist3Chunk(got, xi, p)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("simd=%v n=%d point %d: got %v (%#x) want %v (%#x)",
						simd, n, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
				}
			}
			ExpChunk(got, got)
			for i := 0; i < n; i += 5 {
				if math.Float64bits(want[i]) != math.Float64bits(math.Copysign(0, -1)) || got[i] != 1 {
					t.Fatalf("simd=%v n=%d coincident point %d: exponent %v, exp %v; want -0 and 1", simd, n, i, want[i], got[i])
				}
			}
		}
	}
}
