//go:build amd64 && !noasm

package mat

// hasAVX detects AVX support: the CPU must advertise AVX and OSXSAVE, and
// the OS must have enabled saving the ymm state (XCR0 bits 1 and 2).
func hasAVX() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 1 {
		return false
	}
	_, _, ecx, _ := cpuid(1, 0)
	const osxsaveBit = 1 << 27
	const avxBit = 1 << 28
	if ecx&osxsaveBit == 0 || ecx&avxBit == 0 {
		return false
	}
	xcr0, _ := xgetbv()
	return xcr0&0x6 == 0x6 // SSE and AVX state enabled
}

// hasFMA reports whether the CPU advertises FMA3 (CPUID.1:ECX bit 12). Only
// ExpChunk's body selection asks, after hasAVX, and it pairs the answer with
// a self-check.
func hasFMA() bool {
	_, _, ecx, _ := cpuid(1, 0)
	return ecx&(1<<12) != 0
}

func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

// The *Body routines process 4-aligned lengths only (len % 4 == 0); the Go
// wrappers run the scalar tails. Each is bitwise-identical to its scalar
// counterpart (see simd.go).

//go:noescape
func dotBody(row, x []float64) float64

//go:noescape
func dot2Body(r0, r1, x []float64) (float64, float64)

//go:noescape
func dotAcc4Body(k, v []float64, acc *[4]float64)

//go:noescape
func axpyBody(y, x []float64, a float64)

//go:noescape
func axpy2Body(y, x0, x1 []float64, a0, a1 float64)

//go:noescape
func axpy4Body(y, x0, x1, x2, x3 []float64, a0, a1, a2, a3 float64)

//go:noescape
func recipSqrtBody(dst, r2 []float64)

//go:noescape
func recipCubeBody(dst, r2 []float64)

// The dist3 bodies take a 3-D coordinate panel p (3·len(dst) values) and the
// point xi (len 3); see Dist3Chunk.

//go:noescape
func dist3Body(dst, p, xi []float64)

//go:noescape
func recipSqrtDist3Body(dst, p, xi []float64)

//go:noescape
func recipCubeDist3Body(dst, p, xi []float64)

//go:noescape
func negSqrtDist3Body(dst, p, xi []float64)

// The exp bodies evaluate whole quads of x and return how many elements
// they wrote, stopping at the first quad with a lane outside [-708, 709];
// see ExpChunk.

//go:noescape
func expFMABody(dst, x []float64) int

//go:noescape
func expPlainBody(dst, x []float64) int
