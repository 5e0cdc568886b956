package main

import (
	"fmt"
	"math"
	"time"

	"h2ds/internal/core"
	"h2ds/internal/kernel"
	"h2ds/internal/mat"
	"h2ds/internal/pointset"
	"h2ds/internal/sample"
	"h2ds/internal/solver"
)

// Correctness slack of the solve workload: the residual recomputed with an
// independent apply may exceed CG's recurrence residual by rounding, and the
// sampled product error may exceed the build tolerance by the paper's
// usual factor.
const (
	residualSlack = 4
	accuracySlack = 10
	applyVectors  = 4 // distinct vectors the standalone applies cycle over
)

// runSolve is library use with no HTTP: build, solve (A + σI) x = b with
// CG, then time a block of standalone applies.
func runSolve(r *run) error {
	k := kernel.Exponential{}
	pts := pointset.Cube(solveN, 3, r.seed)
	cfg := core.Config{
		Kind: core.DataDriven, Mode: core.Normal, Tol: tol,
		Workers: r.nproc, Sampler: sample.AnchorNet{},
	}
	r.ctx.N, r.ctx.Mode, r.ctx.Kernel = solveN, "normal", k.Name()
	m, err := r.setupBuilds(pts, k, cfg)
	if err != nil {
		return err
	}

	b := randVec(solveN, r.seed+1)
	r.op(checkAccuracy(m, pts, k, b, r.seed))

	vecs := make([][]float64, applyVectors)
	refs := make([][]float64, applyVectors)
	for i := range vecs {
		vecs[i] = randVec(solveN, r.seed+2+int64(i))
		refs[i] = m.Apply(vecs[i])
	}

	// Measured phase: the solve, then standalone applies until the
	// deadline (and until p90 has enough samples beyond it).
	start := time.Now()
	root := r.tr.begin("solver.cg", 0, 0)
	var opTime time.Duration
	op := solver.Func(func(y, x []float64) {
		h := r.tr.begin("core.apply", root.s.Op, root.s.ID)
		t0 := time.Now()
		m.ApplyTo(y, x)
		opTime += time.Since(t0)
		h.end()
	})
	res := solver.CG(solver.Shifted{Op: op, Sigma: sigma}, b, solveTol, 10*solveN)
	solveTime := time.Since(start)
	root.end()
	r.op(checkSolve(m, b, res))

	y := make([]float64, solveN)
	var lats []float64
	before := m.SweepStats()
	t0 := time.Now()
	for i := 0; time.Since(start) < r.deadline || len(lats) < minSamples(0.9); i++ {
		v := i % applyVectors
		h := r.tr.begin("core.apply", 0, 0)
		a := time.Now()
		m.ApplyTo(y, vecs[v])
		lats = append(lats, ms(time.Since(a)))
		h.end()
		r.op(sameBits(y, refs[v]))
	}
	wall := time.Since(t0)
	after := m.SweepStats()

	mean := 0.0
	for _, l := range lats {
		mean += l
	}
	mean /= float64(len(lats))
	r.metrics["rps"] = float64(len(lats)) / wall.Seconds()
	if err := r.latencies(lats); err != nil {
		return err
	}
	applyLayers(m, before, after, mean, r.metrics)
	r.metrics["solver.solve_s"] = solveTime.Seconds()
	r.metrics["solver.iterations"] = float64(res.Iterations)
	r.metrics["solver.self_ms"] = ms(solveTime - opTime)
	r.ctx.Clients = 1
	r.note("solve_s %.4f s: CG to %.0e in %d iterations (residual %.2e); %d standalone applies",
		solveTime.Seconds(), solveTol, res.Iterations, res.Residual, len(lats))
	zeroServeLayers(r.metrics)
	return nil
}

// latencies reports the median and p90 of the per-operation latencies.
func (r *run) latencies(lats []float64) error {
	p90, err := quantile(lats, 0.9)
	if err != nil {
		return err
	}
	r.metrics["latency_p50_ms"] = median(lats)
	r.metrics["latency_p90_ms"] = p90
	r.note("latency over %d operations: p50 %.4f ms, p90 %.4f ms", len(lats), r.metrics["latency_p50_ms"], p90)
	return nil
}

// checkAccuracy compares Â b against exact rows of the dense product.
func checkAccuracy(m *core.Matrix, pts *pointset.Points, k kernel.Pairwise, b []float64, seed int64) error {
	y := m.Apply(b)
	var num, den float64
	for _, row := range core.DirectRows(pts, k, b, errorRows, seed) {
		d := row.Exact - y[row.Row]
		num += d * d
		den += row.Exact * row.Exact
	}
	if rel := math.Sqrt(num / den); !(rel <= accuracySlack*tol) {
		return fmt.Errorf("sampled relative error %.3e exceeds %g × tolerance %g", rel, float64(accuracySlack), tol)
	}
	return nil
}

// checkSolve recomputes the residual of the CG solution with an independent
// apply of A + σI.
func checkSolve(m *core.Matrix, b []float64, res solver.Result) error {
	if !res.Converged {
		return fmt.Errorf("CG did not converge: residual %.3e after %d iterations", res.Residual, res.Iterations)
	}
	ax := m.Apply(res.X)
	r := make([]float64, len(b))
	for i := range r {
		r[i] = b[i] - ax[i] - sigma*res.X[i]
	}
	if rel := mat.Norm2(r) / mat.Norm2(b); !(rel <= residualSlack*solveTol) {
		return fmt.Errorf("recomputed residual %.3e exceeds %g × %g", rel, float64(residualSlack), solveTol)
	}
	return nil
}

// sameBits requires y to repeat the reference product bit for bit: applies
// are deterministic across calls.
func sameBits(y, ref []float64) error {
	for i := range y {
		if math.Float64bits(y[i]) != math.Float64bits(ref[i]) {
			return fmt.Errorf("apply differs from its first result at %d: %v vs %v", i, y[i], ref[i])
		}
	}
	return nil
}

// zeroServeLayers reports the serving, HTTP and registry layers a library
// workload bypasses: they do no work.
func zeroServeLayers(out map[string]float64) {
	for _, name := range []string{
		"sample.cache_hit_ratio",
		"serve.queue_wait_ms", "serve.flush_ms", "serve.batch_occupancy", "serve.dropped",
		"api.handler_ms", "api.self_ms", "loadgen.transport_ms",
		"registry.build_s", "registry.build_due_s", "registry.late_ms", "registry.queue_ms", "registry.builds_failed",
	} {
		out[name] = 0
	}
}
