package kernel

import (
	"fmt"
	"testing"

	"h2ds/internal/mat"
	"h2ds/internal/pointset"
)

// Benchmarks comparing the seed path (Assemble into scratch, then dense
// GEMV) against the fused devirtualized primitives, per kernel. Run with:
//
//	go test ./internal/kernel -bench 'Fused|AssembleMul' -benchmem
const benchTile = 96

func benchSetup(dim int) (*pointset.Points, *pointset.Points, []int, []int, []float64, []float64) {
	x := pointset.Cube(benchTile*2, dim, 31)
	y := pointset.Cube(benchTile*2, dim, 32)
	rows := make([]int, benchTile)
	cols := make([]int, benchTile)
	for i := range rows {
		rows[i] = i * 2
		cols[i] = i*2 + 1
	}
	v := make([]float64, benchTile)
	out := make([]float64, benchTile)
	for i := range v {
		v[i] = float64(i%7) - 3
	}
	return x, y, rows, cols, v, out
}

func BenchmarkAssembleMulVec(b *testing.B) {
	for _, k := range everyKernel() {
		b.Run(fmt.Sprintf("%s/d3", k.Name()), func(b *testing.B) {
			x, y, rows, cols, v, out := benchSetup(3)
			scratch := mat.NewDense(benchTile, benchTile)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Assemble(scratch, k, x, rows, y, cols)
				mat.MulVecAdd(out, scratch, v)
			}
		})
	}
}

func BenchmarkFusedVec(b *testing.B) {
	for _, k := range everyKernel() {
		b.Run(fmt.Sprintf("%s/d3", k.Name()), func(b *testing.B) {
			x, y, rows, cols, v, out := benchSetup(3)
			buf := mat.NewDense(0, 0)
			c, rhs := mat.NewDenseData(1, benchTile, out), mat.NewDenseData(1, benchTile, v)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				BlockMulAdd(c, k, x, rows, y, cols, rhs, buf)
			}
		})
	}
}

func BenchmarkAssembleMulTVec(b *testing.B) {
	for _, k := range everyKernel() {
		b.Run(fmt.Sprintf("%s/d3", k.Name()), func(b *testing.B) {
			x, y, rows, cols, v, out := benchSetup(3)
			scratch := mat.NewDense(benchTile, benchTile)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Assemble(scratch, k, x, rows, y, cols)
				mat.MulTVecAdd(out, scratch, v)
			}
		})
	}
}

func BenchmarkFusedTVec(b *testing.B) {
	for _, k := range everyKernel() {
		b.Run(fmt.Sprintf("%s/d3", k.Name()), func(b *testing.B) {
			x, y, rows, cols, v, out := benchSetup(3)
			buf := mat.NewDense(0, 0)
			c, rhs := mat.NewDenseData(1, benchTile, out), mat.NewDenseData(1, benchTile, v)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				BlockTMulAdd(c, k, x, rows, y, cols, rhs, buf)
			}
		})
	}
}

func BenchmarkAssembleMulBatch(b *testing.B) {
	for _, k := range everyKernel() {
		b.Run(fmt.Sprintf("%s/d3/rhs8", k.Name()), func(b *testing.B) {
			x, y, rows, cols, _, _ := benchSetup(3)
			scratch := mat.NewDense(benchTile, benchTile)
			rhs := mat.NewDense(8, benchTile)
			out := mat.NewDense(8, benchTile)
			for i := range rhs.Data {
				rhs.Data[i] = float64(i%5) - 2
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Assemble(scratch, k, x, rows, y, cols)
				panelMulAdd(out, scratch, rhs, false)
			}
		})
	}
}

func BenchmarkFusedBatch(b *testing.B) {
	for _, k := range everyKernel() {
		b.Run(fmt.Sprintf("%s/d3/rhs8", k.Name()), func(b *testing.B) {
			x, y, rows, cols, _, _ := benchSetup(3)
			rhs := mat.NewDense(8, benchTile)
			out := mat.NewDense(8, benchTile)
			buf := mat.NewDense(0, 0)
			for i := range rhs.Data {
				rhs.Data[i] = float64(i%5) - 2
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				BlockMulAdd(out, k, x, rows, y, cols, rhs, buf)
			}
		})
	}
}

// BenchmarkFusedPanel times one 200x200 3-D Coulomb BlockMulAdd at width 1
// (a single-vector apply's call) with its columns as a leaf range (panel read
// in place) and as a scattered index set (panel gathered once per block),
// with the AVX panel distance on and off.
func BenchmarkFusedPanel(b *testing.B) {
	pts := pointset.Cube(400, 3, 3)
	rows := benchIdx(200)
	run := benchIdx(400)[200:]
	gathered := make([]int, 200)
	for i := range gathered {
		gathered[i] = (i * 37) % 400
	}
	v := make([]float64, 200)
	for i := range v {
		v[i] = float64(i%7) - 3
	}
	rhs, out := mat.NewDenseData(1, 200, v), mat.NewDense(1, 200)
	defer mat.SetSIMD(mat.SetSIMD(true))
	for _, simd := range []bool{true, false} {
		for _, c := range []struct {
			name string
			cols []int
		}{{"run", run}, {"gathered", gathered}} {
			b.Run(fmt.Sprintf("%s/simd=%v", c.name, simd), func(b *testing.B) {
				mat.SetSIMD(simd)
				buf := mat.NewDense(0, 0)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					BlockMulAdd(out, Coulomb{}, pts, rows, pts, c.cols, rhs, buf)
				}
			})
		}
	}
}
