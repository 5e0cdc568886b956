// Command h2info builds one H² configuration and prints its construction
// summary: tree shape, per-component memory, rank profile, timings, and the
// 12-row error estimate. Useful for tuning LeafSize / Tol / SampleBudget on
// a new workload.
//
// Usage:
//
//	h2info -n 40000 -dist cube -kernel coulomb -tol 1e-8 -basis dd -mem otf
//	h2info -load matrix.h2    # print a serialized matrix's summary instead
//
// -load handles kernel-less streams (matrices built from a dense upload
// through the entry oracle): the kernel prints as "(none)" and the sampled-
// row error check — which needs a kernel to evaluate reference rows — is
// skipped.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"time"

	"h2ds/internal/core"
	"h2ds/internal/kernel"
	"h2ds/internal/pointset"
	"h2ds/internal/sample"
)

func main() {
	n := flag.Int("n", 20000, "number of points")
	dim := flag.Int("dim", 3, "dimension (cube distribution only)")
	dist := flag.String("dist", "cube", "distribution: cube, sphere, dino, ball, mixture")
	kern := flag.String("kernel", "coulomb", "kernel: "+strings.Join(kernel.Names(), ", "))
	tol := flag.Float64("tol", 1e-8, "target relative accuracy")
	reltol := flag.Float64("reltol", 0, "error-controlled build: derive ranks and sample sizes from this tolerance and report the a-posteriori estimate plus per-level ranks (0 = fixed-parameter build via -tol)")
	basis := flag.String("basis", "dd", "construction: dd (data-driven) or interp")
	mem := flag.String("mem", "otf", "memory mode: normal or otf")
	leaf := flag.Int("leaf", 0, "leaf size (0 = default)")
	eta := flag.Float64("eta", 0, "admissibility parameter (0 = 0.7)")
	threads := flag.Int("threads", 0, "worker count (0 = GOMAXPROCS)")
	samplerName := flag.String("sampler", "anchornet", "sampler: anchornet, fps, random")
	budget := flag.Int("budget", 0, "sample budget per node (0 = derived)")
	seed := flag.Int64("seed", 1, "workload seed")
	load := flag.String("load", "", "serialized matrix to summarize (skips the build; other knobs ignored)")
	flag.Parse()

	if *load != "" {
		m, err := loadMatrix(*load)
		if err != nil {
			fmt.Fprintf(os.Stderr, "h2info: %v\n", err)
			os.Exit(1)
		}
		report(m, "loaded from "+*load, *seed)
		return
	}

	pts, ok := pointset.Named(*dist, *n, *dim, *seed)
	if !ok {
		fmt.Fprintf(os.Stderr, "h2info: unknown distribution %q\n", *dist)
		os.Exit(2)
	}
	k, err := kernel.ByName(*kern)
	if err != nil {
		fmt.Fprintf(os.Stderr, "h2info: %v\n", err)
		os.Exit(2)
	}
	s, ok := sample.Named(*samplerName)
	if !ok {
		fmt.Fprintf(os.Stderr, "h2info: unknown sampler %q\n", *samplerName)
		os.Exit(2)
	}
	cfg := core.Config{
		Tol: *tol, RelTol: *reltol, LeafSize: *leaf, Eta: *eta, Workers: *threads,
		Sampler: s, SampleBudget: *budget,
	}
	switch *basis {
	case "dd":
		cfg.Kind = core.DataDriven
	case "interp":
		cfg.Kind = core.Interpolation
	default:
		fmt.Fprintf(os.Stderr, "h2info: unknown basis %q\n", *basis)
		os.Exit(2)
	}
	switch *mem {
	case "normal":
		cfg.Mode = core.Normal
	case "otf":
		cfg.Mode = core.OnTheFly
	default:
		fmt.Fprintf(os.Stderr, "h2info: unknown memory mode %q\n", *mem)
		os.Exit(2)
	}

	m, err := core.Build(pts, k, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "h2info: %v\n", err)
		os.Exit(1)
	}
	report(m, fmt.Sprintf("dist=%s tol=%.0e", *dist, m.Cfg.Tol), *seed)
}

// loadMatrix reads a serialized matrix, including kernel-less streams
// written by dense-upload builds.
func loadMatrix(path string) (*core.Matrix, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	m, err := core.ReadAny(f)
	if err != nil {
		return nil, fmt.Errorf("load %s: %w", path, err)
	}
	return m, nil
}

// report prints m's summary, built or loaded alike: what the matrix is,
// its tree and rank profile, the build phases (builds only), memory, the
// error-controlled receipt (reltol builds only) and a sampled-row error
// check (skipped for kernel-less matrices).
func report(m *core.Matrix, source string, seed int64) {
	s, st := m.Summary(), m.Stats()
	fmt.Printf("h2ds matrix (%s): %s\n", source, s.Line())
	fmt.Printf("tree: %d nodes, %d leaves, depth %d\n", st.Nodes, st.Leaves, st.Depth)
	fmt.Printf("blocks: %d coupling, %d nearfield\n", st.InteractionBlocks, st.NearBlocks)
	fmt.Printf("ranks: max %d, leaf total %d (avg %.1f)\n",
		s.MaxRank, st.SumLeafRank, float64(st.SumLeafRank)/float64(st.Leaves))
	if ph := s.Phases; ph != nil {
		d := func(ns int64) time.Duration { return time.Duration(ns) }
		fmt.Printf("build: total %v (tree %v, sampling %v, basis %v, coupling %v)\n",
			d(ph.TotalNS), d(ph.TreeNS), d(ph.SampleNS), d(ph.BasisNS), d(ph.CouplingNS))
		// Assembly/ID/transfer are summed across workers, so they can exceed
		// the wall-clock basis time above.
		suffix := ""
		if ph.CacheHit {
			suffix = " [construction-cache hit: sampling reused]"
		}
		fmt.Printf("phases (cpu): assembly %v, leaf ID %v, transfer %v%s\n",
			d(ph.AssemblyNS), d(ph.IDNS), d(ph.TransferNS), suffix)
	}
	fmt.Printf("memory: %v\n", m.Memory())
	if s.RelTol > 0 {
		fmt.Printf("error-controlled: reltol=%.0e, a-posteriori estimate %.3e\n", s.RelTol, s.EstRelErr)
	}
	for _, lr := range s.LevelRanks {
		fmt.Printf("  level %d: %d nodes, rank min %d / avg %.1f / max %d\n",
			lr.Level, lr.Nodes, lr.MinRank, lr.AvgRank, lr.MaxRank)
	}
	if !m.HasKernel() {
		fmt.Println("relative error check: skipped (no kernel in stream; entries came from an oracle)")
		return
	}
	rng := rand.New(rand.NewSource(seed + 7))
	b := make([]float64, m.N)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	fmt.Printf("relative error (12 sampled rows): %.3e\n",
		m.EstimateRelError(b, core.DefaultErrorRows, seed+13))
}
