// Highdim: kernel ridge regression in six dimensions — the regime where
// interpolation-based hierarchical matrices collapse under the p^d curse of
// dimensionality and the paper's data-driven method keeps working.
//
// We fit f(x) = sin(2π x·w) on n samples in [0,1]^6 with a Gaussian kernel:
// solve (K + λI) α = y by conjugate gradients, where every CG iteration
// applies the H² matrix built with data-driven sampling (the motivating
// many-matvecs-per-construction workload from §I-A). It exits non-zero if
// CG does not converge.
//
//	go run ./examples/highdim
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

const (
	n   = 8000
	dim = 6
	// Ridge regularization: small enough not to over-smooth the target,
	// large enough for CG to converge in a few hundred iterations.
	ridge = 0.05
)

var weights = []float64{0.9, -0.4, 0.3, 0.7, -0.6, 0.2}

func target(x []float64) float64 {
	s := 0.0
	for i, v := range x {
		s += v * weights[i]
	}
	return math.Sin(math.Pi * s)
}

func main() {
	train := pointset.Cube(n, dim, 1)
	rng := rand.New(rand.NewSource(2))
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		y[i] = target(train.At(i)) + 0.01*rng.NormFloat64()
	}

	k := kernel.Gaussian{Scale: 1.0}
	t0 := time.Now()
	// Weak admissibility (η = 1.5): in six dimensions cluster boxes are fat
	// relative to their separations, so the paper's η = 0.7 admits almost
	// nothing; loosening η exposes farfield blocks that the data-driven ID
	// then compresses adaptively. Normal memory mode: many matvecs ahead.
	m, err := core.Build(train, k, core.Config{
		Kind: core.DataDriven, Mode: core.Normal,
		Tol: 1e-6, Eta: 1.5,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("H² Gaussian kernel matrix, n=%d d=%d: built in %v, %.2f MiB, max rank %d\n",
		n, dim, time.Since(t0), m.Memory().KiB()/1024, m.Stats().MaxRank)
	fmt.Printf("(dense storage would be %.2f GiB; interpolation at this accuracy would need rank p^d ≈ 7^6 = 117649 per node)\n",
		float64(n)*float64(n)*8/(1<<30))

	// Regularized SPD system: CG with the H² operator.
	op := solver.Shifted{Op: m, Sigma: ridge}
	t1 := time.Now()
	res := solver.CG(op, y, 1e-6, 800)
	fmt.Printf("CG: %d iterations in %v, converged=%v, relative residual %.2e\n",
		res.Iterations, time.Since(t1), res.Converged, res.Residual)
	if !res.Converged {
		log.Fatal("CG did not converge")
	}

	// Out-of-sample check on fresh points: prediction is a direct kernel
	// sum against the training set (cheap for a handful of test points).
	test := pointset.Cube(200, dim, 3)
	var sse, sst float64
	for i := 0; i < test.Len(); i++ {
		pred := 0.0
		for j := 0; j < n; j++ {
			pred += kernel.Eval(k, test.At(i), train.At(j)) * res.X[j]
		}
		want := target(test.At(i))
		sse += (pred - want) * (pred - want)
		sst += want * want
	}
	fmt.Printf("test RMSE %.4f (relative %.3f) on %d held-out points\n",
		math.Sqrt(sse/float64(test.Len())), math.Sqrt(sse/sst), test.Len())
}
