package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"testing"
	"time"

	"h2ds/internal/core"
	"h2ds/internal/kernel"
	"h2ds/internal/mat"
	"h2ds/internal/par"
	"h2ds/internal/pointset"
)

// MatvecRun is one measured matvec configuration in the machine-readable
// perf-trajectory report. Times are medians over repeated single applies;
// allocs are the allocator's view of one steady-state ApplyToWith.
type MatvecRun struct {
	N               int     `json:"n"`
	Leaf            int     `json:"leaf"`
	Depth           int     `json:"depth"`
	Mode            string  `json:"mode"`
	Workers         int     `json:"workers"`
	MedianApplyNS   int64   `json:"median_apply_ns"`
	AllocsPerOp     float64 `json:"allocs_per_op"`
	BlockStoreBytes int64   `json:"block_store_bytes"`
	MemKiB          float64 `json:"mem_kib"`
	RelErr          float64 `json:"relerr"`
}

// ScalingRun is one point of the multi-worker scaling sweep: the largest
// case of the scale, re-applied at each worker count through the barrier-free
// scheduler, with the speedup normalized to the single-worker median.
type ScalingRun struct {
	N             int     `json:"n"`
	Leaf          int     `json:"leaf"`
	Mode          string  `json:"mode"`
	Workers       int     `json:"workers"`
	MedianApplyNS int64   `json:"median_apply_ns"`
	Speedup       float64 `json:"speedup"`
}

// TileRun is one per-kernel fused-tile micro-benchmark row: BlockMulAdd on a
// square tile at width 1 (the single-vector apply) with the AVX dispatch on
// versus forced off. Cols names the column shape: "leaf" is a consecutive
// leaf range (coordinate panel read in place, as nearfield blocks),
// "gathered" a scattered index set (panel gathered once per block, as
// coupling blocks over skeletons). ScalarNS and SIMDNS are medians over
// alternating samples; Speedup is the median of the per-pair scalar/simd
// ratios, > 1 meaning the vector path wins.
type TileRun struct {
	Kernel   string  `json:"kernel"`
	Tile     int     `json:"tile"`
	Cols     string  `json:"cols"`
	ScalarNS int64   `json:"scalar_ns"`
	SIMDNS   int64   `json:"simd_ns"`
	Speedup  float64 `json:"speedup"`
}

// MatvecReport is the top-level BENCH_matvec.json document. It exists so the
// matvec hot path's trajectory (latency, allocs, block-store footprint) is
// comparable across commits without parsing the human-readable tables.
type MatvecReport struct {
	Experiment string      `json:"experiment"`
	Scale      string      `json:"scale"`
	Kernel     string      `json:"kernel"`
	Workers    int         `json:"workers"`
	Runs       []MatvecRun `json:"runs"`

	// HostCPUs, GOMAXPROCS, SIMD and ExpBody record the host the rows were
	// measured on: logical CPUs, the Go scheduler's processor limit, whether
	// the AVX dispatch was selected, and which arithmetic mat.ExpChunk ran
	// for the exp-family kernels ("fma", "plain" or "scalar").
	HostCPUs   int    `json:"host_cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	SIMD       bool   `json:"simd"`
	ExpBody    string `json:"exp_body"`

	// Scaling is the multi-worker strong-scaling sweep over the scheduler
	// (workers 1/2/4/8 on the largest case, per memory mode), and Tiles the
	// per-kernel SIMD-vs-scalar fused-tile micro-bench. Both are owned by the
	// matvec experiment and rewritten on every run.
	Scaling []ScalingRun `json:"scaling,omitempty"`
	Tiles   []TileRun    `json:"tiles,omitempty"`

	// RelTolSweep is the error-controlled build sweep (the reltol
	// experiment): requested tolerance vs achieved rank, memory, and
	// measured error. Owned by RelTolSweep; MatvecJSON preserves it.
	RelTolSweep []RelTolRun `json:"reltol_sweep,omitempty"`

	// Cluster is the multi-node routed-apply trajectory (the cluster
	// experiment): latency and throughput through the router, sharded
	// scatter/gather, and the direct single-node baseline. Owned by
	// ClusterBench; MatvecJSON preserves it.
	Cluster []ClusterRun `json:"cluster,omitempty"`

	// Oracle is the geometry-oblivious construction comparison (the oracle
	// experiment): the same Gram matrix built through the coordinate/kernel
	// path and through the dense entry oracle, side by side. Owned by
	// OracleBench; MatvecJSON preserves it.
	Oracle []OracleRun `json:"oracle,omitempty"`

	// Build is the construction-time trajectory (the build experiment):
	// median build time and live heap across problem sizes and worker
	// counts. Owned by BuildBench; MatvecJSON preserves it.
	Build []BuildRun `json:"build,omitempty"`

	// RHS is the batch-versus-sequential multi-RHS comparison (the rhs
	// experiment) per memory mode and width. Owned by MultiRHS; MatvecJSON
	// preserves it.
	RHS []RHSRun `json:"rhs,omitempty"`
}

// mergeReport rewrites one section of the JSON report at opt.JSONOut
// (BENCH_matvec.json by default): it reads the existing report, lets set
// replace the section, and writes it back, so every other experiment's
// rows are preserved.
func mergeReport(opt Options, kernelName string, workers int, section string, set func(*MatvecReport)) error {
	path := opt.JSONOut
	if path == "" {
		path = "BENCH_matvec.json"
	}
	rep := MatvecReport{Experiment: "matvec", Scale: opt.Scale, Kernel: kernelName, Workers: workers}
	if buf, err := os.ReadFile(path); err == nil {
		json.Unmarshal(buf, &rep)
	}
	set(&rep)
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(opt.out(), "\nwrote %s (%s section)\n", path, section)
	return nil
}

// matvecCases returns the (n, leaf) grid for the given scale. The small-n
// deep-tree case (small leaves force many levels) is the configuration where
// per-level runtime overhead, not flops, dominates the apply.
func matvecCases(scale string) [][2]int {
	switch scale {
	case "tiny":
		return [][2]int{{1500, 25}, {3000, 50}}
	case "medium":
		return [][2]int{{5000, 25}, {20000, 100}, {40000, 100}}
	case "paper":
		return [][2]int{{5000, 25}, {20000, 100}, {80000, 200}, {160000, 200}}
	default: // small
		return [][2]int{{5000, 25}, {20000, 100}}
	}
}

// MatvecJSON measures the steady-state apply across the scale's (n, leaf)
// grid in both memory modes and writes BENCH_matvec.json (path overridable
// with -json), printing the same rows as an aligned table. The JSON file is
// the cross-PR perf record: CI uploads it as an artifact on every run.
func MatvecJSON(opt Options) error {
	out := opt.out()
	k, err := opt.kernel()
	if err != nil {
		return err
	}
	workers := par.Resolve(opt.Threads)
	fmt.Fprintf(out, "\n# matvec: steady-state apply trajectory (kernel=%s workers=%d scale=%s)\n",
		k.Name(), workers, opt.Scale)
	tb := newTable(out, "median apply latency and allocs",
		"n", "leaf", "depth", "mode", "apply_us", "allocs/op", "blockstore_KiB", "relerr")

	rep := MatvecReport{Experiment: "matvec", Scale: opt.Scale, Kernel: k.Name(), Workers: workers,
		HostCPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), SIMD: mat.SIMDEnabled(),
		ExpBody: mat.ExpBody()}
	for _, c := range matvecCases(opt.Scale) {
		n, leaf := c[0], c[1]
		pts := pointset.Cube(n, 3, opt.seed())
		b := randVec(n, opt.seed()+7)
		measure := func(m *core.Matrix, label string) {
			ws := m.NewWorkspace()
			y := make([]float64, n)
			m.ApplyToWith(ws, y, b) // warm-up: grows scratch, pages generators

			samples := opt.reps()
			if samples < 5 {
				samples = 5
			}
			times := make([]int64, samples)
			for i := range times {
				t0 := time.Now()
				m.ApplyToWith(ws, y, b)
				times[i] = time.Since(t0).Nanoseconds()
			}
			sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
			median := times[len(times)/2]

			allocs := testing.AllocsPerRun(5, func() { m.ApplyToWith(ws, y, b) })
			mem := m.Memory()
			run := MatvecRun{
				N: n, Leaf: leaf, Depth: m.Tree.Depth(), Mode: label, Workers: workers,
				MedianApplyNS: median, AllocsPerOp: allocs,
				BlockStoreBytes: mem.Coupling + mem.Nearfield,
				MemKiB:          mem.KiB(),
				RelErr:          m.RelErrorVs(b, y, core.DefaultErrorRows, opt.seed()+13),
			}
			rep.Runs = append(rep.Runs, run)
			tb.row(fmt.Sprintf("%d", n), fmt.Sprintf("%d", leaf), fmt.Sprintf("%d", run.Depth),
				run.Mode, fmt.Sprintf("%.1f", float64(median)/1000),
				fmt.Sprintf("%.1f", allocs),
				fmt.Sprintf("%.1f", float64(run.BlockStoreBytes)/1024),
				fmt.Sprintf("%.2e", run.RelErr))
		}

		cfg := core.Config{Kind: core.DataDriven, Mode: core.Normal, Tol: 1e-6, RelTol: opt.RelTol,
			LeafSize: leaf, Workers: opt.Threads, Sampler: opt.sampler()}
		norm, err := core.Build(pts, k, cfg)
		if err != nil {
			return err
		}
		measure(norm, core.Normal.String())
		// The hybrid budget sweep derives views from the Normal build (shared
		// generators, only the selected blocks re-stored), so the fraction axis
		// costs a fraction of a rebuild per point. The fraction scales the
		// Normal build's actual stored-block footprint.
		full := norm.Memory().Coupling + norm.Memory().Nearfield
		for _, fracPct := range []int64{25, 50, 75} {
			h := norm.WithStorageBudget(full * fracPct / 100)
			measure(h, fmt.Sprintf("hybrid-%d", fracPct))
		}

		cfg.Mode = core.OnTheFly
		otf, err := core.Build(pts, k, cfg)
		if err != nil {
			return err
		}
		measure(otf, core.OnTheFly.String())
	}
	tb.flush()

	if err := matvecScaling(opt, k, &rep); err != nil {
		return err
	}
	matvecTiles(opt, &rep)

	path := opt.JSONOut
	if path == "" {
		path = "BENCH_matvec.json"
	}
	// Carry over the other experiments' sections from a previous run of the
	// same file; this experiment only owns the matvec rows.
	if buf, err := os.ReadFile(path); err == nil {
		var old MatvecReport
		if json.Unmarshal(buf, &old) == nil {
			rep.RelTolSweep = old.RelTolSweep
			rep.Cluster = old.Cluster
			rep.Oracle = old.Oracle
			rep.Build = old.Build
			rep.RHS = old.RHS
		}
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "\nwrote %s\n", path)
	return nil
}

// matvecScaling measures the strong-scaling profile of the barrier-free
// scheduler: the scale's largest (n, leaf) case applied at workers 1/2/4/8 in
// each memory mode. Every worker count must reproduce the single-worker
// result bitwise (the scheduler's core contract — checked unconditionally);
// on hosts with at least four CPUs the sweep additionally self-asserts that
// four workers beat one by Options.MinScale on the normal-mode apply.
func matvecScaling(opt Options, k kernel.Kernel, rep *MatvecReport) error {
	out := opt.out()
	cases := matvecCases(opt.Scale)
	n, leaf := cases[len(cases)-1][0], cases[len(cases)-1][1]
	pts := pointset.Cube(n, 3, opt.seed())
	b := randVec(n, opt.seed()+7)

	cfg := core.Config{Kind: core.DataDriven, Mode: core.Normal, Tol: 1e-6, RelTol: opt.RelTol,
		LeafSize: leaf, Workers: 1, Sampler: opt.sampler()}
	norm, err := core.Build(pts, k, cfg)
	if err != nil {
		return err
	}
	full := norm.Memory().Coupling + norm.Memory().Nearfield
	cfg.Mode = core.OnTheFly
	otf, err := core.Build(pts, k, cfg)
	if err != nil {
		return err
	}
	mats := []struct {
		m     *core.Matrix
		label string
	}{
		{norm, core.Normal.String()},
		{norm.WithStorageBudget(full / 2), "hybrid-50"},
		{otf, core.OnTheFly.String()},
	}

	fmt.Fprintf(out, "\n# matvec scaling: workers sweep on n=%d leaf=%d (scheduler path)\n", n, leaf)
	tb := newTable(out, "strong scaling, median apply", "mode", "workers", "apply_us", "speedup")
	var normW1, normW4 int64
	for _, mc := range mats {
		var ref []float64
		var w1 int64
		for _, w := range []int{1, 2, 4, 8} {
			mc.m.Cfg.Workers = w
			ws := mc.m.NewWorkspace()
			y := make([]float64, n)
			mc.m.ApplyToWith(ws, y, b) // warm-up: grows scratch, spins up the pool

			samples := opt.reps()
			if samples < 5 {
				samples = 5
			}
			times := make([]int64, samples)
			for i := range times {
				t0 := time.Now()
				mc.m.ApplyToWith(ws, y, b)
				times[i] = time.Since(t0).Nanoseconds()
			}
			ws.Close()
			sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
			median := times[len(times)/2]

			if w == 1 {
				w1 = median
				ref = append([]float64(nil), y...)
			} else {
				for i := range y {
					if y[i] != ref[i] {
						return fmt.Errorf("matvec scaling: %s w=%d result differs bitwise from w=1 at index %d", mc.label, w, i)
					}
				}
			}
			sp := float64(w1) / float64(median)
			rep.Scaling = append(rep.Scaling, ScalingRun{
				N: n, Leaf: leaf, Mode: mc.label, Workers: w, MedianApplyNS: median, Speedup: sp})
			tb.row(mc.label, fmt.Sprintf("%d", w),
				fmt.Sprintf("%.1f", float64(median)/1000), fmt.Sprintf("%.2f", sp))
			if mc.label == core.Normal.String() {
				switch w {
				case 1:
					normW1 = median
				case 4:
					normW4 = median
				}
			}
		}
	}
	tb.flush()

	minScale := opt.minScale()
	if minScale <= 0 {
		return nil
	}
	if runtime.NumCPU() < 4 {
		fmt.Fprintf(out, "\nscaling assert skipped: host has %d CPUs, need >= 4 for the w4/w1 wall-clock check (bitwise equality across worker counts was still enforced)\n", runtime.NumCPU())
		return nil
	}
	got := float64(normW1) / float64(normW4)
	if got < minScale {
		return fmt.Errorf("matvec scaling: normal-mode w4 speedup %.2fx below required %.2fx (w1=%v w4=%v)",
			got, minScale, time.Duration(normW1), time.Duration(normW4))
	}
	fmt.Fprintf(out, "\nscaling assert: normal-mode w4 speedup %.2fx >= required %.2fx\n", got, minScale)
	return nil
}

// matvecTiles micro-benchmarks the fused BlockMulAdd tile at width 1 (1×tile
// panels, as a single-vector apply runs it) per registered kernel with the
// AVX dispatch forced off versus on, once over a leaf-range column set and
// once over a gathered one. Skipped (with a note) when the host has no AVX —
// the speedup column would be noise.
func matvecTiles(opt Options, rep *MatvecReport) {
	out := opt.out()
	if !mat.SIMDAvailable() {
		fmt.Fprintf(out, "\n# matvec tiles: skipped (no AVX on this host)\n")
		return
	}
	const tile = 192
	x := pointset.Cube(tile, 3, opt.seed()+101)
	yp := pointset.Cube(2*tile, 3, opt.seed()+102)
	rows := make([]int, tile)
	leaf := make([]int, tile)
	gathered := make([]int, tile)
	for i := range rows {
		rows[i], leaf[i] = i, tile/2+i
		gathered[i] = (i * 97) % (2 * tile) // scattered, like a skeleton
	}
	v := mat.NewDenseData(1, tile, randVec(tile, opt.seed()+103))
	acc := mat.NewDense(1, tile)
	buf := mat.NewDense(0, 0)

	// timeRow times one row. Scalar and AVX samples alternate, so host
	// drift during the row lands on both halves alike; each half reports
	// its median and the speedup is the median of the per-pair ratios.
	timeRow := func(k kernel.Kernel, cols []int) (scalar, simd int64, speedup float64) {
		const inner = 8
		sample := func(avx bool) int64 {
			mat.SetSIMD(avx)
			t0 := time.Now()
			for i := 0; i < inner; i++ {
				kernel.BlockMulAdd(acc, k, x, rows, yp, cols, v, buf)
			}
			return time.Since(t0).Nanoseconds() / inner
		}
		n := max(opt.reps(), 5)
		sc, sv, ratio := make([]int64, n), make([]int64, n), make([]float64, n)
		for s := range n {
			sc[s], sv[s] = sample(false), sample(true)
			ratio[s] = float64(sc[s]) / float64(sv[s])
		}
		slices.Sort(sc)
		slices.Sort(sv)
		slices.Sort(ratio)
		return sc[n/2], sv[n/2], ratio[n/2]
	}

	tb := newTable(out, fmt.Sprintf("fused tile micro-bench (BlockMulAdd %dx%d, width 1, alternating samples: median per call, median pair speedup)", tile, tile),
		"kernel", "cols", "scalar_us", "simd_us", "speedup")
	defer mat.SetSIMD(true)
	for _, name := range kernel.Names() {
		k, err := kernel.ByName(name)
		if err != nil {
			continue
		}
		for _, shape := range []struct {
			name string
			cols []int
		}{{"leaf", leaf}, {"gathered", gathered}} {
			kernel.BlockMulAdd(acc, k, x, rows, yp, shape.cols, v, buf) // warm-up
			scalar, simd, sp := timeRow(k, shape.cols)
			rep.Tiles = append(rep.Tiles, TileRun{
				Kernel: name, Tile: tile, Cols: shape.name, ScalarNS: scalar, SIMDNS: simd, Speedup: sp})
			tb.row(name, shape.name, fmt.Sprintf("%.2f", float64(scalar)/1000),
				fmt.Sprintf("%.2f", float64(simd)/1000), fmt.Sprintf("%.2f", sp))
		}
	}
	tb.flush()
}
