package h2ds

// testing.B twins of the paper's evaluation: one benchmark family per table
// and figure (see DESIGN.md §3 for the index). The authoritative
// regeneration path is `go run ./cmd/h2bench -exp <id>`; these benches give
// `go test -bench` visibility into the same code paths at reduced problem
// sizes, with memory reported via b.ReportMetric (KiB, deterministic
// accounting) alongside the allocator view from -benchmem.

import (
	"fmt"
	"math/rand"
	"testing"

	"h2ds/internal/core"
	"h2ds/internal/hmatrix"
	"h2ds/internal/interp"
	"h2ds/internal/kernel"
	"h2ds/internal/mat"
	"h2ds/internal/pointset"
	"h2ds/internal/sample"
)

const (
	benchN   = 8000
	benchTol = 1e-8
)

func benchVec(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func benchConfig(kind core.BasisKind, mode core.MemoryMode, tol float64) core.Config {
	leaf := 100
	if kind == core.Interpolation {
		// Rank-sized leaves for the interpolation baseline (3-D): blocks
		// below the tensor rank p^3 gain nothing from compression.
		p := interp.PFromTol(tol)
		if rank := p * p * p; rank > leaf {
			leaf = rank
		}
	}
	return core.Config{Kind: kind, Mode: mode, Tol: tol, LeafSize: leaf}
}

// benchConstruct times Build for the workload.
func benchConstruct(b *testing.B, pts *pointset.Points, k kernel.Kernel, cfg core.Config) {
	b.Helper()
	var mem float64
	for i := 0; i < b.N; i++ {
		m, err := core.Build(pts, k, cfg)
		if err != nil {
			b.Fatal(err)
		}
		mem = m.Memory().KiB()
	}
	b.ReportMetric(mem, "KiB")
}

// benchMatVec builds once and times ApplyTo.
func benchMatVec(b *testing.B, pts *pointset.Points, k kernel.Kernel, cfg core.Config) {
	b.Helper()
	m, err := core.Build(pts, k, cfg)
	if err != nil {
		b.Fatal(err)
	}
	x := benchVec(pts.Len(), 7)
	y := make([]float64, pts.Len())
	m.ApplyTo(y, x) // warm-up
	b.ReportMetric(m.Memory().KiB(), "KiB")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ApplyTo(y, x)
	}
}

// BenchmarkApply measures the steady-state matvec through the three entry
// points: an explicit caller-owned workspace (ApplyToWith), the pooled
// ApplyTo that existing callers hit, and the batched multi-RHS product.
// The workspace cases must report 0 allocs/op, the parallel one included:
// the sweeps run on the workspace's persistent pool, which spawns nothing
// per apply (TestApplyToWithZeroAllocSteadyState pins 0 allocs/op at
// workers 1 and 2).
func BenchmarkApply(b *testing.B) {
	pts := pointset.Cube(benchN, 3, 1)
	for _, mode := range []core.MemoryMode{core.Normal, core.OnTheFly} {
		cfg := benchConfig(core.DataDriven, mode, benchTol)
		cfg.Workers = 1
		m, err := core.Build(pts, kernel.Coulomb{}, cfg)
		if err != nil {
			b.Fatal(err)
		}
		x := benchVec(benchN, 7)
		y := make([]float64, benchN)
		b.Run(fmt.Sprintf("workspace/serial/%s", mode), func(b *testing.B) {
			ws := m.NewWorkspace()
			m.ApplyToWith(ws, y, x) // warm-up: grows the on-the-fly scratch tile
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.ApplyToWith(ws, y, x)
			}
		})
		b.Run(fmt.Sprintf("pooled/serial/%s", mode), func(b *testing.B) {
			m.ApplyTo(y, x)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.ApplyTo(y, x)
			}
		})
	}
	cfg := benchConfig(core.DataDriven, core.OnTheFly, benchTol)
	m, err := core.Build(pts, kernel.Coulomb{}, cfg)
	if err != nil {
		b.Fatal(err)
	}
	x := benchVec(benchN, 7)
	y := make([]float64, benchN)
	b.Run("workspace/parallel/on-the-fly", func(b *testing.B) {
		ws := m.NewWorkspace()
		m.ApplyToWith(ws, y, x)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.ApplyToWith(ws, y, x)
		}
	})
}

// BenchmarkMultiRHS pits the batched k-RHS product against k sequential
// matvecs on a 20,000-point cube in on-the-fly mode, where each kernel tile
// is assembled once per batch instead of once per column. One op = the full
// k-column product.
func BenchmarkMultiRHS(b *testing.B) {
	const n, k = 20000, 8
	pts := pointset.Cube(n, 3, 1)
	m, err := core.Build(pts, kernel.Coulomb{}, benchConfig(core.DataDriven, core.OnTheFly, 1e-6))
	if err != nil {
		b.Fatal(err)
	}
	B := mat.NewDense(n, k)
	for j := 0; j < k; j++ {
		col := benchVec(n, int64(7+j))
		for i := 0; i < n; i++ {
			B.Set(i, j, col[i])
		}
	}
	b.Run(fmt.Sprintf("sequential/k%d", k), func(b *testing.B) {
		ws := m.NewWorkspace()
		col := make([]float64, n)
		y := make([]float64, n)
		m.ApplyToWith(ws, y, col)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < k; j++ {
				for r := 0; r < n; r++ {
					col[r] = B.At(r, j)
				}
				m.ApplyToWith(ws, y, col)
			}
		}
	})
	b.Run(fmt.Sprintf("batch/k%d", k), func(b *testing.B) {
		ws := m.NewWorkspace()
		Y := mat.NewDense(n, k)
		m.ApplyBatchToWith(ws, Y, B)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.ApplyBatchToWith(ws, Y, B)
		}
	})
}

// BenchmarkFig2Ranks regenerates the Fig 2 rank comparison: both
// constructions at 1e-7 on the 10,000-point cube; rank totals are reported
// as metrics.
func BenchmarkFig2Ranks(b *testing.B) {
	pts := pointset.Cube(10000, 3, 1)
	for _, kind := range []core.BasisKind{core.DataDriven, core.Interpolation} {
		b.Run(kind.String(), func(b *testing.B) {
			var maxRank, sumLeaf int
			for i := 0; i < b.N; i++ {
				m, err := core.Build(pts, kernel.Coulomb{}, benchConfig(kind, core.OnTheFly, 1e-7))
				if err != nil {
					b.Fatal(err)
				}
				maxRank = m.Stats().MaxRank
				sumLeaf = m.Stats().SumLeafRank
			}
			b.ReportMetric(float64(maxRank), "maxrank")
			b.ReportMetric(float64(sumLeaf), "leafranksum")
		})
	}
}

// BenchmarkFig4 covers the distribution study: construction and matvec for
// cube/sphere/dino under both constructions, on-the-fly mode.
func BenchmarkFig4(b *testing.B) {
	for _, dist := range []string{"cube", "sphere", "dino"} {
		pts, _ := pointset.Named(dist, benchN, 3, 1)
		for _, kind := range []core.BasisKind{core.DataDriven, core.Interpolation} {
			cfg := benchConfig(kind, core.OnTheFly, benchTol)
			b.Run(fmt.Sprintf("construct/%s/%s", dist, kind), func(b *testing.B) {
				benchConstruct(b, pts, kernel.Coulomb{}, cfg)
			})
			b.Run(fmt.Sprintf("matvec/%s/%s", dist, kind), func(b *testing.B) {
				benchMatVec(b, pts, kernel.Coulomb{}, cfg)
			})
		}
	}
}

// BenchmarkFig5 covers the dimension study (data-driven through d=5;
// interpolation only where its p^d rank is feasible, as in the paper).
func BenchmarkFig5(b *testing.B) {
	for _, d := range []int{2, 3, 4, 5} {
		pts := pointset.Cube(benchN, d, 1)
		b.Run(fmt.Sprintf("matvec/d%d/data-driven", d), func(b *testing.B) {
			benchMatVec(b, pts, kernel.Coulomb{}, benchConfig(core.DataDriven, core.OnTheFly, benchTol))
		})
		if d <= 3 {
			b.Run(fmt.Sprintf("matvec/d%d/interpolation", d), func(b *testing.B) {
				benchMatVec(b, pts, kernel.Coulomb{}, benchConfig(core.Interpolation, core.OnTheFly, benchTol))
			})
		}
	}
}

// BenchmarkFig6 and BenchmarkTable1 cover the four basis x memory
// combinations on the cube workload (Table I is the same grid at one large
// n; h2bench runs the full size).
func BenchmarkFig6(b *testing.B) {
	pts := pointset.Cube(benchN, 3, 1)
	for _, kind := range []core.BasisKind{core.Interpolation, core.DataDriven} {
		for _, mode := range []core.MemoryMode{core.Normal, core.OnTheFly} {
			cfg := benchConfig(kind, mode, benchTol)
			b.Run(fmt.Sprintf("construct/%s/%s", kind, mode), func(b *testing.B) {
				benchConstruct(b, pts, kernel.Coulomb{}, cfg)
			})
			b.Run(fmt.Sprintf("matvec/%s/%s", kind, mode), func(b *testing.B) {
				benchMatVec(b, pts, kernel.Coulomb{}, cfg)
			})
		}
	}
}

// BenchmarkTable1 is the Table I grid at the bench problem size.
func BenchmarkTable1(b *testing.B) {
	pts := pointset.Cube(benchN, 3, 1)
	for _, kind := range []core.BasisKind{core.Interpolation, core.DataDriven} {
		for _, mode := range []core.MemoryMode{core.Normal, core.OnTheFly} {
			b.Run(fmt.Sprintf("%s/%s", kind, mode), func(b *testing.B) {
				benchMatVec(b, pts, kernel.Coulomb{}, benchConfig(kind, mode, benchTol))
			})
		}
	}
}

// BenchmarkFig7 covers thread scaling of the matvec. Worker counts above the
// host's core count oversubscribe it, so their rows measure scheduling, not
// scaling.
func BenchmarkFig7(b *testing.B) {
	pts := pointset.Cube(benchN, 3, 1)
	for _, threads := range []int{1, 2, 4, 8} {
		cfg := benchConfig(core.DataDriven, core.OnTheFly, benchTol)
		cfg.Workers = threads
		b.Run(fmt.Sprintf("matvec/threads%d", threads), func(b *testing.B) {
			benchMatVec(b, pts, kernel.Coulomb{}, cfg)
		})
	}
}

// BenchmarkFig8 covers the accuracy sweep.
func BenchmarkFig8(b *testing.B) {
	pts := pointset.Cube(benchN, 3, 1)
	for _, tol := range []float64{1e-2, 1e-4, 1e-6, 1e-8} {
		for _, kind := range []core.BasisKind{core.DataDriven, core.Interpolation} {
			b.Run(fmt.Sprintf("matvec/tol%.0e/%s", tol, kind), func(b *testing.B) {
				benchMatVec(b, pts, kernel.Coulomb{}, benchConfig(kind, core.OnTheFly, tol))
			})
		}
	}
}

// BenchmarkFig9 covers kernel generality (data-driven; interpolation's
// kernel independence is already exercised by Fig 4/6/8).
func BenchmarkFig9(b *testing.B) {
	pts := pointset.Cube(benchN, 3, 1)
	for _, kname := range []string{"coulomb", "coulomb3", "exp", "gaussian"} {
		k, _ := kernel.Named(kname)
		b.Run("matvec/"+kname, func(b *testing.B) {
			benchMatVec(b, pts, k, benchConfig(core.DataDriven, core.OnTheFly, benchTol))
		})
	}
}

// BenchmarkAblationSampler compares the three samplers inside the
// data-driven construction.
func BenchmarkAblationSampler(b *testing.B) {
	pts := pointset.Cube(benchN, 3, 1)
	for _, sname := range []string{"anchornet", "fps", "random"} {
		s, _ := sample.Named(sname)
		cfg := benchConfig(core.DataDriven, core.OnTheFly, 1e-6)
		cfg.Sampler = s
		b.Run("construct/"+sname, func(b *testing.B) {
			benchConstruct(b, pts, kernel.Coulomb{}, cfg)
		})
	}
}

// BenchmarkAblationFormat compares the nested H² format against the
// non-nested H baseline at equal tolerance.
func BenchmarkAblationFormat(b *testing.B) {
	pts := pointset.Cube(benchN, 3, 1)
	b.Run("matvec/h2", func(b *testing.B) {
		benchMatVec(b, pts, kernel.Coulomb{}, benchConfig(core.DataDriven, core.Normal, 1e-6))
	})
	b.Run("matvec/h", func(b *testing.B) {
		m, err := hmatrix.Build(pts, kernel.Coulomb{}, hmatrix.Config{Tol: 1e-6, LeafSize: 100})
		if err != nil {
			b.Fatal(err)
		}
		x := benchVec(benchN, 7)
		y := make([]float64, benchN)
		m.ApplyTo(y, x)
		b.ReportMetric(float64(m.Bytes())/1024, "KiB")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.ApplyTo(y, x)
		}
	})
}
