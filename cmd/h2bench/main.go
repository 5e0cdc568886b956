// Command h2bench regenerates the paper's tables and figures.
//
// Usage:
//
//	h2bench -exp fig4                 # one experiment
//	h2bench -exp all -scale small     # the full evaluation, laptop scale
//	h2bench -exp table1 -scale paper  # the paper's problem sizes
//
// Experiments: fig2, fig4, fig5, fig6, table1, fig7, fig8, fig9, ablation,
// rhs (multi-RHS batch apply; sweep width with -rhs), serve (request
// batching under concurrent load; tune with -conc and -window), registry
// (build queue + hot swap), matvec (steady-state apply latency/allocs with
// a machine-readable JSON report; path via -json), reltol (error-controlled
// build sweep; self-asserting), cluster (multi-node routed applies), oracle
// (geometry-oblivious dense-oracle build vs the kernel path;
// self-asserting cross-validation), build (construction-time trajectory:
// median build time across worker counts; self-asserting).
// Output is a plain-text report with one aligned table per panel; see
// EXPERIMENTS.md for how each maps onto the paper.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"h2ds/internal/bench"
	"h2ds/internal/kernel"
)

func main() {
	exp := flag.String("exp", "", "experiment id: "+strings.Join(bench.Experiments(), ", ")+", or all")
	scale := flag.String("scale", "small", "sweep scale: small, medium, paper")
	threads := flag.Int("threads", 0, "worker count (0 = GOMAXPROCS)")
	sampler := flag.String("sampler", "anchornet", "data-driven sampler: anchornet, fps, random")
	seed := flag.Int64("seed", 1, "workload seed")
	reps := flag.Int("reps", 3, "matvec repetitions per timing")
	rhs := flag.Int("rhs", 8, "largest batch width for the multi-RHS sweep (rhs experiment)")
	kern := flag.String("kernel", "coulomb", "kernel for single-kernel experiments: "+strings.Join(kernel.Names(), ", "))
	conc := flag.Int("conc", 32, "client concurrency (serve experiment)")
	window := flag.Duration("window", 500*time.Microsecond, "batcher flush window (serve experiment)")
	jsonOut := flag.String("json", "", "output path for machine-readable reports (matvec experiment; \"\" = BENCH_matvec.json)")
	reltol := flag.Float64("reltol", 0, "error-controlled build tolerance for single-build experiments (0 = fixed-parameter builds)")
	minScale := flag.Float64("minscale", 2.0, "required w4/w1 speedup for the matvec scaling assert (negative disables; auto-skipped on hosts with < 4 CPUs)")
	flag.Parse()

	if _, err := kernel.ByName(*kern); err != nil {
		fmt.Fprintf(os.Stderr, "h2bench: %v\n", err)
		os.Exit(2)
	}

	if *exp == "" {
		fmt.Fprintln(os.Stderr, "h2bench: -exp is required")
		flag.Usage()
		os.Exit(2)
	}
	opt := bench.Options{
		Scale:      *scale,
		Threads:    *threads,
		Sampler:    *sampler,
		Seed:       *seed,
		MatVecReps: *reps,
		RHS:        *rhs,
		Kernel:     *kern,
		Conc:       *conc,
		Window:     *window,
		JSONOut:    *jsonOut,
		RelTol:     *reltol,
		MinScale:   *minScale,
		Out:        os.Stdout,
	}
	if err := bench.Run(*exp, opt); err != nil {
		fmt.Fprintf(os.Stderr, "h2bench: %v\n", err)
		os.Exit(1)
	}
}
