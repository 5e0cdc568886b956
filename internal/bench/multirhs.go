package bench

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"h2ds/internal/core"
	"h2ds/internal/kernel"
	"h2ds/internal/mat"
	"h2ds/internal/par"
	"h2ds/internal/pointset"
)

// RHSRun is one row of the rhs section of BENCH_matvec.json: k sequential
// vector applies against one width-k batch apply of the same inputs on the
// same matrix. Layout names the panel layout the batch ran on:
// "column-major" rows are measured by the experiment; "row-major" rows are a
// frozen record of the row-major batch GEMMs it replaced, kept when the
// experiment re-records the section.
type RHSRun struct {
	N          int     `json:"n"`
	Mode       string  `json:"mode"`
	K          int     `json:"k"`
	Workers    int     `json:"workers"`
	HostCPUs   int     `json:"host_cpus"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Layout     string  `json:"layout"`
	SeqMS      float64 `json:"seq_ms"`
	BatchMS    float64 `json:"batch_ms"`
	Speedup    float64 `json:"speedup"`
}

// MultiRHS measures the batched multi-RHS product against k sequential
// matvecs on the 3-D Coulomb workload in Normal, OnTheFly and Hybrid mode at
// half the stored-block footprint. A batch stores its panels column by
// column, so it applies each stored block to the k columns while the block
// is in cache and evaluates each on-the-fly tile row once for all k, while
// every column runs the vector primitives. Self-asserting: every batch
// column must equal its sequential product bit for bit. With -json the rows
// replace the measured rows of the report's rhs section.
func MultiRHS(opt Options) error {
	out := opt.out()
	kmax := opt.rhs()
	ns := nSweep(opt.Scale)
	n := ns[len(ns)-1]
	fmt.Fprintf(out, "\n# multi-RHS batch apply: n=%d, 3-D cube, Coulomb, k up to %d\n", n, kmax)

	pts := pointset.Cube(n, 3, opt.seed())
	k := kernel.Coulomb{}
	workers := par.Resolve(opt.Threads)
	norm, err := core.Build(pts, k, cfgFor(core.DataDriven, core.Normal, 1e-6, n, 3, opt))
	if err != nil {
		return err
	}
	otf, err := core.Build(pts, k, cfgFor(core.DataDriven, core.OnTheFly, 1e-6, n, 3, opt))
	if err != nil {
		return err
	}
	mem := norm.Memory()
	modes := []struct {
		name string
		m    *core.Matrix
	}{
		{core.Normal.String(), norm},
		{core.OnTheFly.String(), otf},
		{"hybrid-50", norm.WithStorageBudget((mem.Coupling + mem.Nearfield) / 2)},
	}

	tb := newTable(out, "batched apply vs sequential",
		"n", "memory", "k", "T_seq_ms", "T_batch_ms", "speedup")
	var runs []RHSRun
	for _, md := range modes {
		m := md.m
		ws := m.NewWorkspace()
		for rhs := 1; rhs <= kmax; rhs *= 2 {
			B := mat.NewDense(n, rhs)
			for j := 0; j < rhs; j++ {
				col := randVec(n, opt.seed()+7+int64(j))
				for i := 0; i < n; i++ {
					B.Set(i, j, col[i])
				}
			}
			Yseq := mat.NewDense(n, rhs)
			Ybatch := mat.NewDense(n, rhs)
			col := make([]float64, n)
			y := make([]float64, n)
			sequential := func() {
				for j := 0; j < rhs; j++ {
					for i := 0; i < n; i++ {
						col[i] = B.At(i, j)
					}
					m.ApplyToWith(ws, y, col)
					for i := 0; i < n; i++ {
						Yseq.Set(i, j, y[i])
					}
				}
			}
			batch := func() { m.ApplyBatchToWith(ws, Ybatch, B) }

			// Warm-up both paths, then time.
			sequential()
			batch()
			tseq, tbatch := timeReps(opt.reps(), sequential), timeReps(opt.reps(), batch)
			for i, v := range Yseq.Data {
				if math.Float64bits(Ybatch.Data[i]) != math.Float64bits(v) {
					return fmt.Errorf("rhs: %s k=%d: batch row %d column %d = %v, sequential %v",
						md.name, rhs, i/rhs, i%rhs, Ybatch.Data[i], v)
				}
			}
			run := RHSRun{
				N: n, Mode: md.name, K: rhs, Workers: workers,
				HostCPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
				Layout: "column-major",
				SeqMS:  ms(tseq), BatchMS: ms(tbatch),
				Speedup: float64(tseq) / float64(tbatch),
			}
			runs = append(runs, run)
			tb.row(
				fmt.Sprintf("%d", n),
				md.name,
				fmt.Sprintf("%d", rhs),
				fmt.Sprintf("%.2f", run.SeqMS),
				fmt.Sprintf("%.2f", run.BatchMS),
				fmt.Sprintf("%.2fx", run.Speedup),
			)
		}
		ws.Close()
	}
	tb.flush()
	if opt.JSONOut == "" {
		return nil
	}
	return mergeReport(opt, k.Name(), workers, "rhs", func(rep *MatvecReport) {
		var frozen []RHSRun
		for _, r := range rep.RHS {
			if r.Layout == "row-major" {
				frozen = append(frozen, r)
			}
		}
		rep.RHS = append(frozen, runs...)
	})
}

// timeReps returns the mean wall time of reps calls of fn.
func timeReps(reps int, fn func()) time.Duration {
	t0 := time.Now()
	for r := 0; r < reps; r++ {
		fn()
	}
	return time.Since(t0) / time.Duration(reps)
}

// ms renders a duration in milliseconds.
func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
