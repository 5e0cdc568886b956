package bench

import (
	"fmt"
	"sort"
	"time"

	"h2ds/internal/core"
	"h2ds/internal/par"
	"h2ds/internal/pointset"
)

// RelTolRun is one point of the error-controlled tolerance sweep in
// BENCH_matvec.json: the requested tolerance against the rank, memory,
// apply latency, and error it actually bought.
type RelTolRun struct {
	RelTol        float64 `json:"reltol"`
	N             int     `json:"n"`
	Leaf          int     `json:"leaf"`
	SampleBudget  int     `json:"sample_budget"`
	MaxRank       int     `json:"max_rank"`
	AvgLeafRank   float64 `json:"avg_leaf_rank"`
	MemKiB        float64 `json:"mem_kib"`
	BuildMS       float64 `json:"build_ms"`
	MedianApplyNS int64   `json:"median_apply_ns"`
	EstRelErr     float64 `json:"est_relerr"`      // build-time a-posteriori estimate
	MeasuredErr   float64 `json:"measured_relerr"` // independent 12-row measurement
}

// relTolAxis is the default tolerance sweep, loose to tight.
var relTolAxis = []float64{1e-2, 1e-4, 1e-6, 1e-8}

// relTolN picks the sweep's problem size per scale; the tiny/small size is
// the n=2k case CI's smoke step asserts on.
func relTolN(scale string) int {
	switch scale {
	case "medium":
		return 5000
	case "paper":
		return 20000
	default: // tiny, small
		return 2000
	}
}

// RelTolSweep sweeps the error-controlled build tolerance and records what
// each requested digit costs (rank, memory, build and apply time) and buys
// (measured error). The rows land in the reltol_sweep section of
// BENCH_matvec.json alongside the matvec trajectory.
//
// The sweep is self-asserting — it fails if any measured error exceeds 10x
// the requested tolerance, or if rank or memory shrinks as the tolerance
// tightens — so running it IS the accuracy regression check; CI needs no
// extra parsing.
func RelTolSweep(opt Options) error {
	out := opt.out()
	k, err := opt.kernel()
	if err != nil {
		return err
	}
	axis := relTolAxis
	if opt.RelTol > 0 {
		axis = []float64{opt.RelTol}
	}
	n := relTolN(opt.Scale)
	leaf := leafSizeFor(n)
	workers := par.Resolve(opt.Threads)
	fmt.Fprintf(out, "\n# reltol: error-controlled build sweep (kernel=%s n=%d workers=%d scale=%s)\n",
		k.Name(), n, workers, opt.Scale)
	tb := newTable(out, "requested tolerance vs achieved rank/memory/error",
		"reltol", "m_budget", "maxrank", "avg_leaf_rank", "mem_KiB", "build_ms", "apply_us", "est_err", "meas_err")

	pts := pointset.Cube(n, 3, opt.seed())
	b := randVec(n, opt.seed()+7)
	var runs []RelTolRun
	for _, rt := range axis {
		cfg := core.Config{Kind: core.DataDriven, Mode: core.Normal, RelTol: rt,
			LeafSize: leaf, Workers: opt.Threads, Sampler: opt.sampler()}
		t0 := time.Now()
		m, err := core.Build(pts, k, cfg)
		if err != nil {
			return fmt.Errorf("reltol %g: %w", rt, err)
		}
		build := time.Since(t0)

		ws := m.NewWorkspace()
		y := make([]float64, n)
		m.ApplyToWith(ws, y, b)
		samples := opt.reps()
		if samples < 5 {
			samples = 5
		}
		times := make([]int64, samples)
		for i := range times {
			t1 := time.Now()
			m.ApplyToWith(ws, y, b)
			times[i] = time.Since(t1).Nanoseconds()
		}
		ws.Close()
		sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })

		st := m.Stats()
		run := RelTolRun{
			RelTol: rt, N: n, Leaf: leaf,
			SampleBudget:  core.RelTolSampleBudget(rt, pts.Dim),
			MaxRank:       st.MaxRank,
			MemKiB:        m.Memory().KiB(),
			BuildMS:       float64(build.Microseconds()) / 1000,
			MedianApplyNS: times[len(times)/2],
			EstRelErr:     st.EstRelErr,
			MeasuredErr:   m.RelErrorVs(b, y, core.DefaultErrorRows, opt.seed()+13),
		}
		if st.Leaves > 0 {
			run.AvgLeafRank = float64(st.SumLeafRank) / float64(st.Leaves)
		}
		runs = append(runs, run)
		tb.row(fmt.Sprintf("%.0e", rt), fmt.Sprintf("%d", run.SampleBudget),
			fmt.Sprintf("%d", run.MaxRank), fmt.Sprintf("%.1f", run.AvgLeafRank),
			fmt.Sprintf("%.1f", run.MemKiB), fmt.Sprintf("%.1f", run.BuildMS),
			fmt.Sprintf("%.1f", float64(run.MedianApplyNS)/1000),
			fmt.Sprintf("%.2e", run.EstRelErr), fmt.Sprintf("%.2e", run.MeasuredErr))
	}
	tb.flush()

	// The error-controlled contract, asserted on the fresh measurements.
	for i, run := range runs {
		if run.MeasuredErr > 10*run.RelTol {
			return fmt.Errorf("reltol %g: measured error %.3e exceeds 10x the requested tolerance", run.RelTol, run.MeasuredErr)
		}
		if run.EstRelErr > 10*run.RelTol {
			return fmt.Errorf("reltol %g: a-posteriori estimate %.3e exceeds 10x the requested tolerance", run.RelTol, run.EstRelErr)
		}
		if i > 0 {
			if run.MaxRank < runs[i-1].MaxRank {
				return fmt.Errorf("reltol %g: max rank %d below the looser tolerance's %d", run.RelTol, run.MaxRank, runs[i-1].MaxRank)
			}
			if run.MemKiB < runs[i-1].MemKiB {
				return fmt.Errorf("reltol %g: memory %.1f KiB below the looser tolerance's %.1f", run.RelTol, run.MemKiB, runs[i-1].MemKiB)
			}
		}
	}

	fmt.Fprintf(out, "\nreltol_sweep: %d rows, all within 10x of request\n", len(runs))
	return mergeReport(opt, k.Name(), workers, "reltol_sweep", func(rep *MatvecReport) { rep.RelTolSweep = runs })
}
