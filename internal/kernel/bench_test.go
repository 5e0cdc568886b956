package kernel

import (
	"testing"

	"h2ds/internal/mat"
	"h2ds/internal/pointset"
)

// Benchmarks for the tile-assembly substrate (the paper's §III-C "SIMD
// kernel evaluation" analogue): one 200x200 Coulomb tile is the unit of
// work the on-the-fly matvec repeats per block.

func benchIdx(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

func BenchmarkAssembleCoulomb3D(b *testing.B) {
	pts := pointset.Cube(400, 3, 1)
	rows := benchIdx(200)
	cols := benchIdx(400)[200:]
	dst := mat.NewDense(0, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Assemble(dst, Coulomb{}, pts, rows, pts, cols)
	}
}

func BenchmarkAssembleGaussian5D(b *testing.B) {
	pts := pointset.Cube(400, 5, 2)
	rows := benchIdx(200)
	cols := benchIdx(400)[200:]
	dst := mat.NewDense(0, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Assemble(dst, Gaussian{Scale: 0.1}, pts, rows, pts, cols)
	}
}
