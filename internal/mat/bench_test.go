package mat

import (
	"math/rand"
	"testing"
)

// Micro-benchmarks for the dense substrate: these are the inner kernels of
// the H² construction (CPQR/ID per node) and matvec (GEMV per block).

func BenchmarkMul(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := randDense(rng, 200, 200)
	c := randDense(rng, 200, 200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Mul(a, c)
	}
}

func BenchmarkMulVec(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	a := randDense(rng, 400, 400)
	x := make([]float64, 400)
	y := make([]float64, 400)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulVecTo(y, a, x)
	}
}

func BenchmarkCPQR(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	a := randDense(rng, 300, 120)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewCPQR(a, 1e-10, 0, nil)
	}
}

func BenchmarkRowID(b *testing.B) {
	// The per-node compression of the data-driven construction: a leaf
	// panel of ~200 points against ~128 farfield samples.
	rng := rand.New(rand.NewSource(4))
	a := randLowRank(rng, 200, 128, 60)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewRowID(a, 1e-8, 0, nil)
	}
}

func BenchmarkSVDJacobi(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	a := randDense(rng, 80, 80)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewSVD(a)
	}
}

func BenchmarkACA(b *testing.B) {
	entry := func(i, j int) float64 {
		return 1 / (3 + float64(i)/200 - float64(j)/200)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ACA(200, 200, entry, 1e-8, 0)
	}
}

// BenchmarkExpChunk times one 64-entry chunk of exp-family kernel
// arguments, AVX body against the math.Exp loop.
func BenchmarkExpChunk(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	x := make([]float64, 64)
	for i := range x {
		x[i] = -3 * rng.Float64()
	}
	dst := make([]float64, len(x))
	for _, simd := range []bool{true, false} {
		b.Run(map[bool]string{true: "simd", false: "scalar"}[simd], func(b *testing.B) {
			defer SetSIMD(SetSIMD(simd))
			for range b.N {
				ExpChunk(dst, x)
			}
		})
	}
}
