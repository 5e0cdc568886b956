package mat

import "math"

// SIMD dispatch layer.
//
// On amd64 with OS-enabled AVX, the hot vector primitives (dot, dot2, axpy,
// axpy2, axpy4) and the fused-kernel chunk helpers route their 4-aligned body
// through hand-written AVX assembly. The assembly is constructed to be
// bitwise-identical to the scalar loops, not merely close:
//
//   - dot keeps ONE 4-lane ymm accumulator whose lanes are exactly the four
//     scalar accumulators s0..s3, reduced as (s0+s1)+(s2+s3) via per-half
//     horizontal adds — the same rounding sequence as the scalar code. (This
//     also means the reduction chain, not the multiplies, bounds dot's
//     speedup; axpy-shaped loops with independent elements get the full
//     vector width.)
//   - the axpy family applies the same per-element multiply/add sequence with
//     separate VMULPD/VADDPD (never FMA), so each element sees the identical
//     roundings in the identical order.
//   - RecipSqrtChunk/RecipCubeChunk use VSQRTPD and VDIVPD, which IEEE-754
//     requires to be correctly rounded exactly like math.Sqrt and scalar
//     division.
//   - the 3-D panel distance (Dist3Chunk and its fused Coulomb forms)
//     transposes four points with AVX1 lane moves and then subtracts,
//     squares and adds per axis in the scalar order, again without FMA.
//
// Scalar tails (length % 4) always run in Go, after the assembly body for
// dots (matching the scalar tail order) and element-wise for axpys.
//
// simdEnabled may be toggled by SetSIMD for A/B tests and micro-benchmarks;
// it is a plain bool read on every dispatch, so toggle it only from a single
// goroutine with no products in flight.
var simdEnabled = hasAVX()

// Dispatch thresholds: below these lengths the call overhead of the assembly
// body outstrips its gain. axpy-shaped loops win at the full vector width so
// they dispatch early; dot-shaped loops are reduction-latency-bound and need
// longer rows to amortize the extra reduce.
const (
	simdMinAxpy = 8
	simdMinDot  = 12
)

// SIMDAvailable reports whether the running CPU and OS support the AVX path.
func SIMDAvailable() bool { return hasAVX() }

// SIMDEnabled reports whether the AVX path is currently selected.
func SIMDEnabled() bool { return simdEnabled }

// SetSIMD enables or disables the AVX path (no-op enable when unavailable)
// and returns the previous setting. Not safe to call concurrently with
// running products; intended for equivalence tests and micro-benchmarks.
func SetSIMD(on bool) bool {
	prev := simdEnabled
	simdEnabled = on && hasAVX()
	return prev
}

// DotAcc4 accumulates acc[l] += Σ_{t ≡ l (mod 4)} k[t]*v[t] for the four
// dot-accumulator lanes — the chunk-resident core of the fused BlockVecAdd.
// len(v) must be a multiple of 4 and len(k) >= len(v); lane l sees its
// partial sums in index order, exactly as the scalar 4-accumulator loop.
func DotAcc4(k, v []float64, acc *[4]float64) {
	if simdEnabled && len(v) >= simdMinDot {
		dotAcc4Body(k[:len(v)], v, acc)
		return
	}
	k = k[:len(v)]
	for t := 0; t+4 <= len(v); t += 4 {
		acc[0] += k[t] * v[t]
		acc[1] += k[t+1] * v[t+1]
		acc[2] += k[t+2] * v[t+2]
		acc[3] += k[t+3] * v[t+3]
	}
}

// AxpyChunk computes y[i] += a*x[i] over len(x) elements — the exported form
// of axpy for the fused kernel primitives.
func AxpyChunk(y []float64, a float64, x []float64) { axpy(y, a, x) }

// Axpy2Chunk computes y[i] = (y[i] + a0*x0[i]) + a1*x1[i].
func Axpy2Chunk(y []float64, a0 float64, x0 []float64, a1 float64, x1 []float64) {
	axpy2(y, a0, x0, a1, x1)
}

// Axpy4Chunk fuses four sequential axpy passes with one rounding per add.
func Axpy4Chunk(y []float64, a0 float64, x0 []float64, a1 float64, x1 []float64, a2 float64, x2 []float64, a3 float64, x3 []float64) {
	axpy4(y, a0, x0, a1, x1, a2, x2, a3, x3)
}

// RecipSqrtChunk fills dst[t] = 1/sqrt(r2[t]), with 0 where r2[t] == 0 — the
// Coulomb kernel's chunk evaluation. Both the AVX body (VSQRTPD + VDIVPD,
// correctly rounded by IEEE-754) and the scalar loop reproduce
// math.Sqrt-then-divide bitwise.
func RecipSqrtChunk(dst, r2 []float64) {
	dst = dst[:len(r2)]
	t := 0
	if simdEnabled && len(r2) >= simdMinAxpy {
		t = len(r2) &^ 3
		recipSqrtBody(dst[:t], r2[:t])
	}
	recipSqrtGo(dst[t:], r2[t:])
}

// RecipCubeChunk fills dst[t] = 1/r³ with r = sqrt(r2[t]), 0 where r2[t] == 0
// — the CoulombCubed chunk evaluation, multiplying r*r then *r before the
// divide exactly as the scalar code.
func RecipCubeChunk(dst, r2 []float64) {
	dst = dst[:len(r2)]
	t := 0
	if simdEnabled && len(r2) >= simdMinAxpy {
		t = len(r2) &^ 3
		recipCubeBody(dst[:t], r2[:t])
	}
	recipCubeGo(dst[t:], r2[t:])
}

// Dist3Chunk fills r2[t] with the squared distance between the 3-D point xi
// and point t of the coordinate panel p (p[3t:3t+3], points stored one after
// another), evaluated as (d0*d0 + d1*d1) + d2*d2 with dc = xi[c] - p[3t+c]:
// the order of the scalar distance loops. The AVX body transposes four
// points per step with AVX1 lane moves and keeps that order with separate
// subtract, multiply and add (no FMA), so both paths agree bitwise.
func Dist3Chunk(r2, xi, p []float64) {
	t := 0
	if simdEnabled && len(r2) >= simdMinAxpy {
		t = len(r2) &^ 3
		dist3Body(r2[:t], p[:3*t], xi[:3])
	}
	dist3Go(r2[t:], xi, p[3*t:])
}

// RecipSqrtDist3Chunk fills dst[t] = 1/r for the Dist3Chunk distance r of
// panel point t, 0 where r == 0: the Coulomb kernel evaluated in the same
// pass as the distance, bitwise-equal to Dist3Chunk then RecipSqrtChunk.
func RecipSqrtDist3Chunk(dst, xi, p []float64) {
	t := 0
	if simdEnabled && len(dst) >= simdMinAxpy {
		t = len(dst) &^ 3
		recipSqrtDist3Body(dst[:t], p[:3*t], xi[:3])
	}
	tail := dst[t:]
	dist3Go(tail, xi, p[3*t:])
	recipSqrtGo(tail, tail)
}

// RecipCubeDist3Chunk is RecipSqrtDist3Chunk for the 1/r³ (CoulombCubed)
// kernel, bitwise-equal to Dist3Chunk then RecipCubeChunk.
func RecipCubeDist3Chunk(dst, xi, p []float64) {
	t := 0
	if simdEnabled && len(dst) >= simdMinAxpy {
		t = len(dst) &^ 3
		recipCubeDist3Body(dst[:t], p[:3*t], xi[:3])
	}
	tail := dst[t:]
	dist3Go(tail, xi, p[3*t:])
	recipCubeGo(tail, tail)
}

// dist3Go is the scalar Dist3Chunk loop (the AVX bodies' tail and fallback).
func dist3Go(r2, xi, p []float64) {
	x0, x1, x2 := xi[0], xi[1], xi[2]
	p = p[:3*len(r2)]
	for t := range r2 {
		q := p[3*t : 3*t+3]
		d0 := x0 - q[0]
		d1 := x1 - q[1]
		d2 := x2 - q[2]
		r2[t] = d0*d0 + d1*d1 + d2*d2
	}
}

// recipSqrtGo is the scalar RecipSqrtChunk loop; dst may alias r2.
func recipSqrtGo(dst, r2 []float64) {
	dst = dst[:len(r2)]
	for t, v := range r2 {
		r := math.Sqrt(v)
		if r == 0 {
			dst[t] = 0
			continue
		}
		dst[t] = 1 / r
	}
}

// recipCubeGo is the scalar RecipCubeChunk loop; dst may alias r2.
func recipCubeGo(dst, r2 []float64) {
	dst = dst[:len(r2)]
	for t, v := range r2 {
		r := math.Sqrt(v)
		if r == 0 {
			dst[t] = 0
			continue
		}
		dst[t] = 1 / (r * r * r)
	}
}
