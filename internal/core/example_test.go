package core_test

import (
	"fmt"
	"math/rand"

	"h2ds/internal/core"
	"h2ds/internal/kernel"
	"h2ds/internal/pointset"
	"h2ds/internal/solver"
)

// ExampleBuild shows the standard workflow: construct a data-driven H²
// matrix in on-the-fly mode, apply it, and check the accuracy with the
// 12-row estimator.
func ExampleBuild() {
	pts := pointset.Cube(3000, 3, 1)
	m, err := core.Build(pts, kernel.Coulomb{}, core.Config{
		Kind: core.DataDriven,
		Mode: core.OnTheFly,
		Tol:  1e-6,
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	rng := rand.New(rand.NewSource(2))
	b := make([]float64, 3000)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	y := m.Apply(b)
	relErr := m.RelErrorVs(b, y, core.DefaultErrorRows, 3)
	fmt.Println("error below 1e-5:", relErr < 1e-5)
	fmt.Println("stores coupling blocks:", m.Memory().Coupling > 0)
	// Output:
	// error below 1e-5: true
	// stores coupling blocks: false
}

// ExampleMatrix_ApplyTo solves a regularized kernel system (K + σI) x = b
// with conjugate gradients on the H² operator.
func ExampleMatrix_ApplyTo() {
	pts := pointset.Cube(2000, 3, 4)
	m, err := core.Build(pts, kernel.Gaussian{Scale: 0.5}, core.Config{
		Kind: core.DataDriven,
		Mode: core.Normal, // many matvecs ahead: store the blocks
		Tol:  1e-7,
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	rng := rand.New(rand.NewSource(5))
	b := make([]float64, 2000)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	res := solver.CG(solver.Shifted{Op: m, Sigma: 1}, b, 1e-8, 100)
	fmt.Println("converged:", res.Converged)
	// Output:
	// converged: true
}
