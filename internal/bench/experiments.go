package bench

import (
	"fmt"
	"math"

	"h2ds/internal/core"
	"h2ds/internal/hmatrix"
	"h2ds/internal/interp"
	"h2ds/internal/kernel"
	"h2ds/internal/pointset"
	"h2ds/internal/tree"
)

// nSweep returns the point-count sweep for the given scale.
func nSweep(scale string) []int {
	switch scale {
	case "tiny": // undocumented: harness smoke tests
		return []int{1500, 3000}
	case "paper":
		return []int{20000, 40000, 80000, 160000, 320000}
	case "medium":
		return []int{10000, 20000, 40000, 80000}
	default:
		return []int{5000, 10000, 20000}
	}
}

// interpRankCap bounds the tensor rank p^d the harness will attempt for the
// interpolation baseline; beyond it the configuration is reported as
// skipped, mirroring the paper's own capping of interpolation in five
// dimensions ("due to time and memory constraints").
const interpRankCap = 3000

func interpFeasible(tol float64, dim int) (rank int, ok bool) {
	p := interp.PFromTol(tol)
	r := 1
	for i := 0; i < dim; i++ {
		r *= p
		if r > interpRankCap {
			return r, false
		}
	}
	return r, true
}

// cfgFor assembles the standard experiment configuration. The
// interpolation baseline gets leaves at least as large as its tensor rank
// p^d — blocks smaller than the approximation rank gain nothing from
// compression, and rank-sized leaves are what keeps its normal-mode
// coupling storage within the paper's reported ballpark.
func cfgFor(kind core.BasisKind, mode core.MemoryMode, tol float64, n, dim int, opt Options) core.Config {
	leaf := leafSizeFor(n)
	if kind == core.Interpolation {
		if rank, ok := interpFeasible(tol, dim); ok && rank > leaf {
			leaf = rank
		}
	}
	return core.Config{
		Kind: kind, Mode: mode, Tol: tol,
		LeafSize: leaf, Workers: opt.Threads, Sampler: opt.sampler(),
	}
}

// Fig2 reproduces the rank-comparison heatmap (paper Fig 2): 10,000 points
// in a cube, Coulomb kernel, 1e-7 relative error; interpolation ranks vs
// data-driven ranks, reported per tree level plus the leaf distribution.
func Fig2(opt Options) error {
	out := opt.out()
	fmt.Fprintf(out, "\n# fig2: basis ranks, interpolation vs data-driven (n=10000 cube, coulomb, tol=1e-7)\n")
	pts := pointset.Cube(10000, 3, opt.seed())
	k := kernel.Coulomb{}
	tol := 1e-7
	leaf := leafSizeFor(10000)

	dd, err := core.Build(pts, k, core.Config{Kind: core.DataDriven, Mode: core.OnTheFly,
		Tol: tol, LeafSize: leaf, Workers: opt.Threads, Sampler: opt.sampler()})
	if err != nil {
		return err
	}
	ip, err := core.Build(pts, k, core.Config{Kind: core.Interpolation, Mode: core.OnTheFly,
		Tol: tol, LeafSize: leaf, Workers: opt.Threads})
	if err != nil {
		return err
	}

	t := newTable(out, "per-level basis ranks", "level", "nodes",
		"dd_min", "dd_med", "dd_max", "interp_rank")
	ddRanks := dd.NodeRanks()
	ipRanks := ip.NodeRanks()
	for l, ids := range dd.Tree.Levels {
		var ranks []int
		for _, id := range ids {
			ranks = append(ranks, ddRanks[id])
		}
		minR, maxR := ranks[0], ranks[0]
		for _, r := range ranks {
			if r < minR {
				minR = r
			}
			if r > maxR {
				maxR = r
			}
		}
		ipr := 0
		if l < len(ip.Tree.Levels) && len(ip.Tree.Levels[l]) > 0 {
			ipr = ipRanks[ip.Tree.Levels[l][0]]
		}
		t.row(fmt.Sprintf("%d", l), fmt.Sprintf("%d", len(ids)),
			fmt.Sprintf("%d", minR), fmt.Sprintf("%d", medianInt(ranks)),
			fmt.Sprintf("%d", maxR), fmt.Sprintf("%d", ipr))
	}
	t.flush()

	sd, si := dd.Stats(), ip.Stats()
	fmt.Fprintf(out, "\nleaf-rank totals: data-driven sum=%d (avg %.1f), interpolation sum=%d (rank %d each)\n",
		sd.SumLeafRank, float64(sd.SumLeafRank)/float64(sd.Leaves), si.SumLeafRank, si.MaxRank)
	fmt.Fprintf(out, "coupling blocks: %d, nearfield blocks: %d (red cells in the paper's figure)\n",
		sd.InteractionBlocks, sd.NearBlocks)
	b := randVec(10000, opt.seed()+7)
	fmt.Fprintf(out, "achieved relerr: data-driven %.2e, interpolation %.2e\n",
		dd.EstimateRelError(b, core.DefaultErrorRows, opt.seed()+13),
		ip.EstimateRelError(b, core.DefaultErrorRows, opt.seed()+13))
	return nil
}

// Fig4 reproduces the distribution study (paper Fig 4): T_const, T_mv and
// memory vs n for the cube, sphere and dino distributions, data-driven vs
// interpolation, on-the-fly memory mode, Coulomb kernel, tol ~1e-8.
func Fig4(opt Options) error {
	out := opt.out()
	tol := 1e-8
	fmt.Fprintf(out, "\n# fig4: distributions (coulomb, on-the-fly, tol=%.0e, threads=%d)\n", tol, opt.Threads)
	for _, dist := range []string{"cube", "sphere", "dino"} {
		t := newTable(out, "distribution "+dist, stdCols...)
		for _, n := range nSweep(opt.Scale) {
			pts, _ := pointset.Named(dist, n, 3, opt.seed())
			for _, kind := range []core.BasisKind{core.DataDriven, core.Interpolation} {
				r, err := Measure(pts, kernel.Coulomb{}, cfgFor(kind, core.OnTheFly, tol, n, pts.Dim, opt), opt)
				if err != nil {
					return err
				}
				r.Dist = dist
				t.row(rowFor(r)...)
			}
		}
		t.flush()
	}
	return nil
}

// Fig5 reproduces the dimension study (paper Fig 5): hypercube volumes in
// d = 2..5, on-the-fly mode, tol ~1e-8. Interpolation configurations whose
// tensor rank exceeds the cap are reported as skipped (the paper likewise
// stopped interpolation at 40,000 points in five dimensions).
func Fig5(opt Options) error {
	out := opt.out()
	tol := 1e-8
	fmt.Fprintf(out, "\n# fig5: dimensions 2..5 (coulomb, on-the-fly, tol=%.0e)\n", tol)
	sweep := nSweep(opt.Scale)
	for _, d := range []int{2, 3, 4, 5} {
		t := newTable(out, fmt.Sprintf("dimension d=%d", d), stdCols...)
		for _, n := range sweep {
			pts := pointset.Cube(n, d, opt.seed())
			for _, kind := range []core.BasisKind{core.DataDriven, core.Interpolation} {
				if kind == core.Interpolation {
					if rank, ok := interpFeasible(tol, d); !ok {
						t.row(fmt.Sprintf("%d", n), "interpolation", "on-the-fly",
							"skipped", "skipped", "skipped",
							fmt.Sprintf("rank p^d=%d exceeds cap %d", rank, interpRankCap), "-")
						continue
					}
				}
				r, err := Measure(pts, kernel.Coulomb{}, cfgFor(kind, core.OnTheFly, tol, n, pts.Dim, opt), opt)
				if err != nil {
					return err
				}
				t.row(rowFor(r)...)
			}
		}
		t.flush()
	}
	return nil
}

// Fig6 reproduces the cumulative-effect study (paper Fig 6): the four
// combinations {interpolation, data-driven} x {normal, on-the-fly} on the
// cube distribution as n grows.
func Fig6(opt Options) error {
	out := opt.out()
	tol := 1e-8
	fmt.Fprintf(out, "\n# fig6: cumulative effect of data-driven + on-the-fly (cube 3-D, coulomb, tol=%.0e)\n", tol)
	t := newTable(out, "all four combinations", stdCols...)
	for _, n := range nSweep(opt.Scale) {
		pts := pointset.Cube(n, 3, opt.seed())
		for _, kind := range []core.BasisKind{core.Interpolation, core.DataDriven} {
			for _, mode := range []core.MemoryMode{core.Normal, core.OnTheFly} {
				r, err := Measure(pts, kernel.Coulomb{}, cfgFor(kind, mode, tol, n, pts.Dim, opt), opt)
				if err != nil {
					return err
				}
				t.row(rowFor(r)...)
			}
		}
	}
	t.flush()
	return nil
}

// Table1 reproduces the paper's Table I: the four basis/memory combinations
// at a single large n (320,000 in the paper; scaled down by default).
func Table1(opt Options) error {
	out := opt.out()
	n := 40000
	switch opt.Scale {
	case "tiny":
		n = 4000
	case "medium":
		n = 100000
	case "paper":
		n = 320000
	}
	tol := 1e-8
	fmt.Fprintf(out, "\n# table1: timings and memory at n=%d (cube 3-D, coulomb, tol=%.0e)\n", n, tol)
	pts := pointset.Cube(n, 3, opt.seed())
	t := newTable(out, "Table I", stdCols...)
	for _, kind := range []core.BasisKind{core.Interpolation, core.DataDriven} {
		for _, mode := range []core.MemoryMode{core.Normal, core.OnTheFly} {
			r, err := Measure(pts, kernel.Coulomb{}, cfgFor(kind, mode, tol, n, pts.Dim, opt), opt)
			if err != nil {
				return err
			}
			t.row(rowFor(r)...)
		}
	}
	t.flush()
	return nil
}

// Fig7 reproduces the thread-scaling study (paper Fig 7): both
// constructions in on-the-fly mode across worker counts. On a single-core
// host the sweep still runs (worker count is a software parameter), but no
// speedup can appear; see EXPERIMENTS.md.
func Fig7(opt Options) error {
	out := opt.out()
	n := 30000
	switch opt.Scale {
	case "tiny":
		n = 4000
	case "medium":
		n = 100000
	case "paper":
		n = 1000000
	}
	tol := 1e-8
	fmt.Fprintf(out, "\n# fig7: thread scaling at n=%d (cube 3-D, coulomb, on-the-fly, tol=%.0e)\n", n, tol)
	pts := pointset.Cube(n, 3, opt.seed())
	t := newTable(out, "threads sweep", append([]string{"threads"}, stdCols...)...)
	for _, threads := range []int{1, 2, 4, 8, 14} {
		for _, kind := range []core.BasisKind{core.DataDriven, core.Interpolation} {
			cfg := cfgFor(kind, core.OnTheFly, tol, n, pts.Dim, opt)
			cfg.Workers = threads
			r, err := Measure(pts, kernel.Coulomb{}, cfg, opt)
			if err != nil {
				return err
			}
			t.row(append([]string{fmt.Sprintf("%d", threads)}, rowFor(r)...)...)
		}
	}
	t.flush()
	return nil
}

// Fig8 reproduces the accuracy study (paper Fig 8): both methods in
// on-the-fly mode across target tolerances on a fixed cube workload.
func Fig8(opt Options) error {
	out := opt.out()
	n := 20000
	if opt.Scale == "tiny" {
		n = 4000
	}
	if opt.Scale == "medium" || opt.Scale == "paper" {
		n = 80000
	}
	tols := []float64{1e-2, 1e-4, 1e-6, 1e-8}
	if opt.Scale != "small" && opt.Scale != "" {
		tols = append(tols, 1e-10)
	}
	fmt.Fprintf(out, "\n# fig8: accuracy sweep at n=%d (cube 3-D, coulomb, on-the-fly)\n", n)
	pts := pointset.Cube(n, 3, opt.seed())
	t := newTable(out, "tolerance sweep", append([]string{"tol"}, stdCols...)...)
	for _, tol := range tols {
		for _, kind := range []core.BasisKind{core.DataDriven, core.Interpolation} {
			r, err := Measure(pts, kernel.Coulomb{}, cfgFor(kind, core.OnTheFly, tol, n, pts.Dim, opt), opt)
			if err != nil {
				return err
			}
			t.row(append([]string{fmt.Sprintf("%.0e", tol)}, rowFor(r)...)...)
		}
	}
	t.flush()
	return nil
}

// Fig9 reproduces the kernel-generality study (paper Fig 9): Coulomb,
// cubed Coulomb, exponential and Gaussian kernels, both methods, on-the-fly
// mode.
func Fig9(opt Options) error {
	out := opt.out()
	tol := 1e-8
	fmt.Fprintf(out, "\n# fig9: kernel generality (cube 3-D, on-the-fly, tol=%.0e)\n", tol)
	for _, kname := range []string{"coulomb", "coulomb3", "exp", "gaussian"} {
		k, _ := kernel.Named(kname)
		t := newTable(out, "kernel "+kname, stdCols...)
		for _, n := range nSweep(opt.Scale) {
			pts := pointset.Cube(n, 3, opt.seed())
			for _, kind := range []core.BasisKind{core.DataDriven, core.Interpolation} {
				r, err := Measure(pts, k, cfgFor(kind, core.OnTheFly, tol, n, pts.Dim, opt), opt)
				if err != nil {
					return err
				}
				t.row(rowFor(r)...)
			}
		}
		t.flush()
	}
	return nil
}

// Ablation runs the design-choice studies DESIGN.md calls out: the sampler
// choice inside the data-driven construction, and the nested (H²) vs
// non-nested (H) format at equal tolerance.
func Ablation(opt Options) error {
	out := opt.out()
	n := 20000
	if opt.Scale == "tiny" {
		n = 4000
	}
	if opt.Scale == "medium" || opt.Scale == "paper" {
		n = 80000
	}
	tol := 1e-6
	pts := pointset.Cube(n, 3, opt.seed())
	b := randVec(n, opt.seed()+7)

	fmt.Fprintf(out, "\n# ablation: sampler choice (n=%d, cube 3-D, coulomb, tol=%.0e)\n", n, tol)
	t := newTable(out, "samplers", "sampler", "T_const_ms", "T_mv_ms", "mem_KiB", "relerr", "maxrank", "avg_leaf_rank")
	for _, sname := range []string{"anchornet", "fps", "random"} {
		o2 := opt
		o2.Sampler = sname
		r, err := Measure(pts, kernel.Coulomb{}, core.Config{
			Kind: core.DataDriven, Mode: core.OnTheFly, Tol: tol,
			LeafSize: leafSizeFor(n), Workers: opt.Threads, Sampler: o2.sampler(),
		}, o2)
		if err != nil {
			return err
		}
		t.row(sname, fmt.Sprintf("%.1f", r.TConstMS), fmt.Sprintf("%.2f", r.TMatVecMS),
			fmt.Sprintf("%.1f", r.MemKiB), fmt.Sprintf("%.2e", r.RelErr),
			fmt.Sprintf("%d", r.MaxRank), fmt.Sprintf("%.1f", r.AvgLeafRnk))
	}
	t.flush()

	fmt.Fprintf(out, "\n# ablation: nested (H²) vs non-nested (H) format\n")
	leaf := leafSizeFor(n)
	h2m, err := core.Build(pts, kernel.Coulomb{}, core.Config{
		Kind: core.DataDriven, Mode: core.Normal, Tol: tol, LeafSize: leaf, Workers: opt.Threads})
	if err != nil {
		return err
	}
	hm, err := hmatrix.Build(pts, kernel.Coulomb{}, hmatrix.Config{
		Tol: tol, LeafSize: leaf, Workers: opt.Threads})
	if err != nil {
		return err
	}
	y2 := h2m.Apply(b)
	yh := hm.Apply(b)
	t2 := newTable(out, "formats", "format", "mem_KiB", "relerr_vs_dense", "farfield_blocks")
	hs := hm.ComputeStats()
	t2.row("H2 (nested)", fmt.Sprintf("%.1f", h2m.Memory().KiB()),
		fmt.Sprintf("%.2e", h2m.RelErrorVs(b, y2, core.DefaultErrorRows, opt.seed()+13)),
		fmt.Sprintf("%d", h2m.Stats().InteractionBlocks))
	t2.row("H (non-nested)", fmt.Sprintf("%.1f", float64(hm.Bytes())/1024),
		fmt.Sprintf("%.2e", relErrEstimateH(hm, pts, b, yh, opt)),
		fmt.Sprintf("%d", hs.LowRankBlocks))
	t2.flush()
	return nil
}

// relErrEstimateH reuses the 12-row protocol for the H-matrix baseline.
func relErrEstimateH(hm *hmatrix.Matrix, pts *pointset.Points, b, y []float64, opt Options) float64 {
	// Build a throwaway estimator via a tiny H² wrapper is overkill; do the
	// row sampling directly against the dense kernel rows.
	return estimateRows(pts, hm.Kern, b, y, core.DefaultErrorRows, opt.seed()+13)
}

// estimateRows is the shared 12-row exact-row error estimate in original
// ordering.
func estimateRows(pts *pointset.Points, k kernel.Pairwise, b, y []float64, rows int, seed int64) float64 {
	exact := core.DirectRows(pts, k, b, rows, seed)
	var num, den float64
	for _, e := range exact {
		d := e.Exact - y[e.Row]
		num += d * d
		den += e.Exact * e.Exact
	}
	if den == 0 {
		return 0
	}
	return math.Sqrt(num / den)
}

// treeDepthFor is a tiny helper exposed for tests: depth of the tree the
// harness configurations produce.
func treeDepthFor(n, leaf int) int {
	pts := pointset.Cube(n, 3, 1)
	return tree.New(pts, tree.Config{LeafSize: leaf}, nil).Depth()
}
