package h2ds

// Cross-module integration tests: the iterative solvers driving H² and H
// operators, exactly the many-matvecs-per-construction workload the paper's
// normal memory mode targets (§I-A, §VI-B).

import (
	"math"
	"testing"
	"time"

	"h2ds/internal/core"
	"h2ds/internal/hmatrix"
	"h2ds/internal/kernel"
	"h2ds/internal/pointset"
	"h2ds/internal/solver"
)

func TestCGOnH2Operator(t *testing.T) {
	// Solve (K + σI) x = b with the Gaussian kernel (SPD) through the H²
	// operator and verify against the exact dense operator.
	n := 2000
	pts := pointset.Cube(n, 3, 1)
	k := kernel.Gaussian{Scale: 0.5}
	m, err := core.Build(pts, k, core.Config{Kind: core.DataDriven, Mode: core.Normal, Tol: 1e-8, LeafSize: 80})
	if err != nil {
		t.Fatal(err)
	}
	sigma := 0.5
	b := benchVec(n, 2)
	res := solver.CG(solver.Shifted{Op: m, Sigma: sigma}, b, 1e-9, 600)
	if !res.Converged {
		t.Fatalf("CG did not converge: residual %g after %d iters", res.Residual, res.Iterations)
	}
	// Exact-operator residual.
	ax := core.DirectApply(pts, k, res.X)
	var num, den float64
	for i := range ax {
		r := b[i] - (ax[i] + sigma*res.X[i])
		num += r * r
		den += b[i] * b[i]
	}
	if rel := math.Sqrt(num / den); rel > 1e-6 {
		t.Fatalf("exact residual %g", rel)
	}
}

func TestGMRESOnOTFOperator(t *testing.T) {
	// Second-kind system (I + cK) x = g through the on-the-fly operator.
	n := 2500
	pts := pointset.Annulus(n, 0.5, 1, 3)
	k := kernel.Exponential{}
	m, err := core.Build(pts, k, core.Config{Kind: core.DataDriven, Mode: core.OnTheFly, Tol: 1e-8, LeafSize: 80})
	if err != nil {
		t.Fatal(err)
	}
	c := 1.0 / float64(n)
	op := solver.Func(func(y, x []float64) {
		m.ApplyTo(y, x)
		for i := range y {
			y[i] = x[i] + c*y[i]
		}
	})
	g := benchVec(n, 4)
	res := solver.GMRES(op, g, 30, 1e-10, 500)
	if !res.Converged {
		t.Fatalf("GMRES did not converge: residual %g", res.Residual)
	}
	// Verify with exact rows.
	rows := core.DirectRows(pts, k, res.X, 12, 5)
	var num, den float64
	for _, r := range rows {
		exact := res.X[r.Row] + c*r.Exact
		d := exact - g[r.Row]
		num += d * d
		den += g[r.Row] * g[r.Row]
	}
	if rel := math.Sqrt(num / den); rel > 1e-7 {
		t.Fatalf("exact-row residual %g", rel)
	}
}

func TestH2AndHAgree(t *testing.T) {
	// The two hierarchical formats approximate the same matrix; at equal
	// tolerance their products must agree with each other far more tightly
	// than with a coarse approximation.
	n := 3000
	pts := pointset.Cube(n, 3, 6)
	b := benchVec(n, 7)
	tol := 1e-8
	h2, err := core.Build(pts, kernel.Coulomb{}, core.Config{Kind: core.DataDriven, Mode: core.OnTheFly, Tol: tol, LeafSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	hm, err := hmatrix.Build(pts, kernel.Coulomb{}, hmatrix.Config{Tol: tol, LeafSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	y2 := h2.Apply(b)
	yh := hm.Apply(b)
	var num, den float64
	for i := range y2 {
		d := y2[i] - yh[i]
		num += d * d
		den += y2[i] * y2[i]
	}
	if rel := math.Sqrt(num / den); rel > 1e-5 {
		t.Fatalf("formats disagree: %g", rel)
	}
}

func TestSamplingAmortizationSpeedsRebuilds(t *testing.T) {
	// Rebuilding for a second kernel through a shared construction cache
	// must skip the tree and sampling phases entirely.
	pts := pointset.Cube(4000, 3, 8)
	cfg := core.Config{Kind: core.DataDriven, Mode: core.OnTheFly, Tol: 1e-7, LeafSize: 80, Cache: core.NewBuildCache(1)}
	first, err := core.Build(pts, kernel.Coulomb{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	second, err := core.Build(pts, kernel.Exponential{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	reused, fresh := second.Stats().Phases.SampleNS, first.Stats().Phases.SampleNS
	if reused > fresh/10 {
		t.Fatalf("reused sampling should be ~free, took %v vs fresh %v", time.Duration(reused), time.Duration(fresh))
	}
	b := benchVec(4000, 9)
	y := second.Apply(b)
	if e := second.RelErrorVs(b, y, 12, 10); e > 1e-5 {
		t.Fatalf("amortized build inaccurate: %g", e)
	}
}
