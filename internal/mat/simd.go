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
//     division; NegSqrtDist3Chunk flips VSQRTPD's sign bit, exactly as Go's
//     negation does.
//   - the 3-D panel distance (Dist3Chunk and its fused Coulomb and
//     Exponential forms) transposes four points with AVX1 lane moves and
//     then subtracts, squares and adds per axis in the scalar order, again
//     without FMA.
//   - ExpChunk transcribes the Go runtime's amd64 math.Exp four lanes at a
//     time. math.Exp itself has two bodies, FMA and mul/add, chosen per CPU,
//     so ExpChunk has both and enables one only after an init self-check
//     against math.Exp (see pickExpBody).
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
// dot-accumulator lanes — the chunk-resident core of the fused row dots.
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

// NegSqrtDist3Chunk fills dst[t] = -r for the Dist3Chunk distance r of panel
// point t: the Exponential kernel's exponent formed in the distance pass,
// bitwise-equal to Dist3Chunk then dst[t] = -math.Sqrt(r2[t]) (VSQRTPD is
// correctly rounded and the sign flip is exact, so a coincident point gives
// -0 and exp(-0) = 1 in both).
func NegSqrtDist3Chunk(dst, xi, p []float64) {
	t := 0
	if simdEnabled && len(dst) >= simdMinAxpy {
		t = len(dst) &^ 3
		negSqrtDist3Body(dst[:t], p[:3*t], xi[:3])
	}
	tail := dst[t:]
	dist3Go(tail, xi, p[3*t:])
	negSqrtGo(tail, tail)
}

// ExpChunk fills dst[t] = math.Exp(x[t]), bit for bit; dst may be x itself.
// With AVX on, whole quads run through the AVX transcription of math.Exp's
// body that passed the init self-check (ExpBody), as long as every lane lies
// in [-708, 709], where math.Exp takes neither its non-finite, overflow nor
// denormal-result branch; a quad with a lane outside that range, and the
// length % 4 tail, go through math.Exp itself.
func ExpChunk(dst, x []float64) {
	dst = dst[:len(x)]
	t := 0
	if simdEnabled && expKind != expScalar {
		u := len(x) &^ 3
		for t < u {
			if expKind == expFMA {
				t += expFMABody(dst[t:u], x[t:u])
			} else {
				t += expPlainBody(dst[t:u], x[t:u])
			}
			if t < u {
				expGo(dst[t:t+4], x[t:t+4])
				t += 4
			}
		}
	}
	expGo(dst[t:], x[t:])
}

// ExpBody names the arithmetic ExpChunk runs: "fma" or "plain" for the AVX
// transcription of math.Exp's FMA or mul/add body, "scalar" for the
// math.Exp loop (no AVX, no body passed the self-check, -tags noasm, or
// SetSIMD(false)).
func ExpBody() string {
	if !simdEnabled {
		return "scalar"
	}
	return [...]string{"scalar", "plain", "fma"}[expKind]
}

// ExpChunk bodies, in ExpBody's naming order.
const (
	expScalar = iota
	expPlain
	expFMA
)

// expKind is the ExpChunk body picked once at init.
var expKind = pickExpBody()

// pickExpBody selects the body that reproduces this process's math.Exp. The
// runtime runs math.Exp's FMA body when the CPU has FMA (and GODEBUG does
// not turn it off), so the FMA body is tried first, on FMA CPUs only, and
// each candidate must match math.Exp bit for bit on expProbes, which hold
// arguments where the two bodies round differently. If neither matches,
// ExpChunk stays on the scalar loop.
func pickExpBody() int {
	switch {
	case !hasAVX():
		return expScalar
	case hasFMA() && expSelfCheck(expFMABody):
		return expFMA
	case expSelfCheck(expPlainBody):
		return expPlain
	}
	return expScalar
}

// expSelfCheck reports whether body evaluates every probe exactly as
// math.Exp does.
func expSelfCheck(body func(dst, x []float64) int) bool {
	x := expProbes()
	got := make([]float64, len(x))
	if body(got, x) != len(x) {
		return false
	}
	for i, v := range x {
		if math.Float64bits(got[i]) != math.Float64bits(math.Exp(v)) {
			return false
		}
	}
	return true
}

// expProbes returns the self-check arguments, a multiple of four inside the
// fast range: its ends, ±0, an argument on which math.Exp's two bodies are
// known to differ, and a 256-point sweep of [-708, 709], about a tenth of
// whose points also tell the bodies apart.
func expProbes() []float64 {
	x := []float64{-708, 709, math.Copysign(0, -1), 0, -0.7248376983202387, -1, 1, 0.5}
	for i := range 256 {
		x = append(x, -708+1417*float64(i)/255)
	}
	return x
}

// expGo is the scalar ExpChunk loop (the tail and the out-of-range quads);
// dst may alias x.
func expGo(dst, x []float64) {
	dst = dst[:len(x)]
	for t, v := range x {
		dst[t] = math.Exp(v)
	}
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

// negSqrtGo is the scalar NegSqrtDist3Chunk evaluation; dst may alias r2.
func negSqrtGo(dst, r2 []float64) {
	dst = dst[:len(r2)]
	for t, v := range r2 {
		dst[t] = -math.Sqrt(v)
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
