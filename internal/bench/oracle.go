package bench

import (
	"fmt"
	"math"
	"sort"
	"time"

	"h2ds/internal/core"
	"h2ds/internal/kernel"
	"h2ds/internal/oracle"
	"h2ds/internal/par"
	"h2ds/internal/pointset"
)

// OracleRun is one row of the geometry-oblivious construction comparison in
// BENCH_matvec.json: the same Gram matrix built through the coordinate
// kernel path ("kernel") and through the dense entry oracle ("oracle" — no
// coordinates, no formula), with build cost, apply latency, memory, the
// error certificate, and the measured error against the dense reference.
type OracleRun struct {
	Path          string  `json:"path"` // "kernel" or "oracle"
	N             int     `json:"n"`
	Leaf          int     `json:"leaf"`
	BuildMS       float64 `json:"build_ms"`
	MedianApplyNS int64   `json:"median_apply_ns"`
	MemKiB        float64 `json:"mem_kib"`
	EstRelErr     float64 `json:"est_relerr"`      // build-time a-posteriori certificate
	MeasuredErr   float64 `json:"measured_relerr"` // apply vs the dense reference, one random vector
	AgreeErr      float64 `json:"agree_relerr"`    // oracle vs kernel apply ("oracle" rows only)
}

// oracleN picks the comparison's problem size per scale. The matrix is
// materialized densely (n² float64), so the sizes stay modest.
func oracleN(scale string) int {
	switch scale {
	case "medium":
		return 2000
	case "paper":
		return 4000
	default: // tiny, small
		return 600
	}
}

// OracleBench builds one Gram matrix twice — from coordinates through the
// kernel, and geometry-obliviously through the dense entry oracle — and
// reports what dropping the coordinates costs: the oracle pays an O(n)
// entry-sampled embedding plus block reads against a stored matrix, the
// kernel path evaluates its formula. The rows land in the oracle section of
// BENCH_matvec.json.
//
// Self-asserting: both paths' error certificates and measured errors must
// land under 10x the requested tolerance and the two applies must agree to
// 20x of it, so running the experiment IS the cross-validation check.
//
// The Gram matrix is always gaussian, ignoring the harness-wide -kernel
// (whose default is coulomb): the entry-sampled embedding derives distances
// from K_ii + K_jj − 2K_ij, which needs a genuine positive-definite
// diagonal — coulomb's zero-diagonal convention makes those pseudo-distances
// collapse and the geometry-oblivious path lose its geometry.
func OracleBench(opt Options) error {
	out := opt.out()
	const (
		reltol = 1e-6
		kname  = "gaussian"
	)
	k, err := kernel.ByName(kname)
	if err != nil {
		return err
	}
	n := oracleN(opt.Scale)
	leaf := leafSizeFor(n)
	workers := par.Resolve(opt.Threads)

	fmt.Fprintf(out, "oracle: geometry-oblivious construction, kernel=%s n=%d leaf=%d reltol=%.0e workers=%d\n\n",
		kname, n, leaf, reltol, workers)

	pts := pointset.Cube(n, 3, opt.seed())
	data := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			data[i*n+j] = k.EvalPair(pts.At(i), pts.At(j))
		}
	}
	src, err := oracle.NewDense(n, data, true)
	if err != nil {
		return err
	}
	b := randVec(n, opt.seed()+3)
	ref := make([]float64, n)
	for i := 0; i < n; i++ {
		row := data[i*n : (i+1)*n]
		var s float64
		for j, v := range row {
			s += v * b[j]
		}
		ref[i] = s
	}

	cfg := core.Config{Kind: core.DataDriven, Mode: core.Normal,
		RelTol: reltol, LeafSize: leaf, Workers: opt.Threads, Sampler: opt.sampler()}

	measure := func(path string, build func() (*core.Matrix, error)) (OracleRun, []float64, error) {
		t0 := time.Now()
		m, err := build()
		if err != nil {
			return OracleRun{}, nil, fmt.Errorf("%s build: %w", path, err)
		}
		buildMS := float64(time.Since(t0).Microseconds()) / 1000

		ws := m.NewWorkspace()
		y := make([]float64, n)
		m.ApplyToWith(ws, y, b) // warm-up
		times := make([]time.Duration, 0, opt.reps())
		for r := 0; r < opt.reps(); r++ {
			t1 := time.Now()
			m.ApplyToWith(ws, y, b)
			times = append(times, time.Since(t1))
		}
		ws.Close()
		sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })

		var num, den float64
		for i := range y {
			num += (y[i] - ref[i]) * (y[i] - ref[i])
			den += ref[i] * ref[i]
		}
		run := OracleRun{
			Path: path, N: n, Leaf: leaf,
			BuildMS:       buildMS,
			MedianApplyNS: times[len(times)/2].Nanoseconds(),
			MemKiB:        m.Memory().KiB(),
			EstRelErr:     m.Stats().EstRelErr,
			MeasuredErr:   math.Sqrt(num / den),
		}
		return run, y, nil
	}

	kernelRun, yk, err := measure("kernel", func() (*core.Matrix, error) { return core.Build(pts, k, cfg) })
	if err != nil {
		return err
	}
	oracleRun, yo, err := measure("oracle", func() (*core.Matrix, error) { return core.BuildOracle(src, cfg) })
	if err != nil {
		return err
	}
	var num, den float64
	for i := range yo {
		num += (yo[i] - yk[i]) * (yo[i] - yk[i])
		den += yk[i] * yk[i]
	}
	oracleRun.AgreeErr = math.Sqrt(num / den)
	runs := []OracleRun{kernelRun, oracleRun}

	tb := newTable(out, "construction path comparison",
		"path", "build ms", "apply µs", "mem KiB", "est err", "measured err", "agree")
	for _, r := range runs {
		agree := "-"
		if r.Path == "oracle" {
			agree = fmt.Sprintf("%.2e", r.AgreeErr)
		}
		tb.row(r.Path, fmt.Sprintf("%.1f", r.BuildMS),
			fmt.Sprintf("%.1f", float64(r.MedianApplyNS)/1000),
			fmt.Sprintf("%.1f", r.MemKiB),
			fmt.Sprintf("%.2e", r.EstRelErr), fmt.Sprintf("%.2e", r.MeasuredErr), agree)
	}
	tb.flush()

	// The cross-validation contract, asserted on the fresh measurements.
	for _, r := range runs {
		if r.EstRelErr > 10*reltol {
			return fmt.Errorf("oracle bench: %s certificate %.3e exceeds 10x reltol %g", r.Path, r.EstRelErr, reltol)
		}
		if r.MeasuredErr > 10*reltol {
			return fmt.Errorf("oracle bench: %s measured error %.3e exceeds 10x reltol %g", r.Path, r.MeasuredErr, reltol)
		}
	}
	if oracleRun.AgreeErr > 20*reltol {
		return fmt.Errorf("oracle bench: paths disagree by %.3e (limit %g)", oracleRun.AgreeErr, 20*reltol)
	}

	return mergeReport(opt, k.Name(), workers, "oracle", func(rep *MatvecReport) { rep.Oracle = runs })
}
