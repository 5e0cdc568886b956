// Potential3d: the workload that motivated hierarchical matrices — N-body
// potential summation. Charged particles are placed on a sphere surface and
// on the non-uniform "dino" surface cloud; the Coulomb potential at every
// particle (φ_i = Σ_j q_j / |x_i - x_j|) is evaluated with the H² matvec
// and verified against exact direct summation on sampled rows.
//
// The example also demonstrates the paper's sampling amortization (§VI-A):
// the hierarchical sampling is computed once per point set and reused,
// through a shared construction cache, to build matrices for two different
// kernels.
//
//	go run ./examples/potential3d
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"h2ds/internal/core"
	"h2ds/internal/kernel"
	"h2ds/internal/pointset"
)

func run(name string, pts *pointset.Points) {
	n := pts.Len()
	q := make([]float64, n) // charges
	rng := rand.New(rand.NewSource(7))
	for i := range q {
		q[i] = rng.Float64()
	}

	cfg := core.Config{Kind: core.DataDriven, Mode: core.OnTheFly, Tol: 1e-7, Cache: core.NewBuildCache(1)}
	t0 := time.Now()
	coul, err := core.Build(pts, kernel.Coulomb{}, cfg)
	if err != nil {
		log.Fatal(err)
	}
	tBuild := time.Since(t0)

	t1 := time.Now()
	phi := coul.Apply(q)
	tApply := time.Since(t1)

	relErr := coul.RelErrorVs(q, phi, core.DefaultErrorRows, 11)
	fmt.Printf("%-8s n=%d: build %v, potential sum %v, relerr %.2e, mem %.2f MiB\n",
		name, n, tBuild, tApply, relErr, coul.Memory().KiB()/1024)

	// Reuse the kernel-independent tree and sampling for a screened
	// (exponential) interaction on the same particles: the cache hits.
	t2 := time.Now()
	screened, err := core.Build(pts, kernel.Exponential{}, cfg)
	if err != nil {
		log.Fatal(err)
	}
	phiS := screened.Apply(q)
	fmt.Printf("%-8s   screened kernel reusing sampling (cache hit %v): build %v, relerr %.2e\n",
		name, screened.Stats().Phases.CacheHit, time.Since(t2), screened.RelErrorVs(q, phiS, core.DefaultErrorRows, 12))
}

func main() {
	run("sphere", pointset.Sphere(30000, 5))
	run("dino", pointset.Dino(30000, 6))
}
