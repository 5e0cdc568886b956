// Bie2d: a boundary-integral-style dense system — the classical
// hierarchical-matrix application (Rokhlin 1985; paper §I-B1). A
// second-kind integral equation is discretized on 12,000 points of a 2-D
// annulus with the exponential kernel:
//
//	(I + c·K) x = g
//
// and solved with restarted GMRES, where every inner iteration applies the
// H² matrix in on-the-fly mode. The solution is verified by applying the
// operator exactly (direct summation) on sampled rows. It exits non-zero if
// GMRES does not converge.
//
//	go run ./examples/bie2d
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"
	"time"

	"h2ds/internal/core"
	"h2ds/internal/kernel"
	"h2ds/internal/pointset"
	"h2ds/internal/solver"
)

func main() {
	const n = 12000
	const c = 1.0 / n // quadrature-like scaling keeps the system second-kind
	pts := pointset.Annulus(n, 0.5, 1.0, 1)
	k := kernel.Exponential{}

	t0 := time.Now()
	m, err := core.Build(pts, k, core.Config{Kind: core.DataDriven, Mode: core.OnTheFly, Tol: 1e-8})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("H² operator built in %v (%.2f MiB on-the-fly)\n", time.Since(t0), m.Memory().KiB()/1024)

	// Right-hand side: a smooth boundary density.
	g := make([]float64, n)
	for i := 0; i < n; i++ {
		x := pts.At(i)
		g[i] = math.Cos(3*math.Atan2(x[1], x[0])) + 0.5
	}

	op := solver.Func(func(y, x []float64) {
		m.ApplyTo(y, x)
		for i := range y {
			y[i] = x[i] + c*y[i]
		}
	})
	t1 := time.Now()
	res := solver.GMRES(op, g, 30, 1e-10, 2000)
	fmt.Printf("GMRES: %d iterations in %v, converged=%v, relative residual %.2e\n",
		res.Iterations, time.Since(t1), res.Converged, res.Residual)
	if !res.Converged {
		log.Fatal("GMRES did not converge")
	}

	// Verify against the exact operator on sampled rows.
	rng := rand.New(rand.NewSource(4))
	var num, den float64
	for t := 0; t < 12; t++ {
		i := rng.Intn(n)
		exact := res.X[i] + c*kernel.RowApply(k, pts, i, res.X)
		d := exact - g[i]
		num += d * d
		den += g[i] * g[i]
	}
	fmt.Printf("exact-operator residual on 12 sampled rows: %.2e\n", math.Sqrt(num/den))
}
