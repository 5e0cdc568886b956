package bench

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"h2ds/internal/core"
	"h2ds/internal/par"
	"h2ds/internal/pointset"
)

// BuildRun is one measured construction configuration in the build section of
// BENCH_matvec.json. Mode names the build path: "blocked" (blocked CPQR +
// fused panel assembly) is the only one measured; "seed" rows (unblocked
// CPQR, per-entry assembly) in older reports are a frozen historical record
// of the pre-acceleration baseline, kept when the experiment re-records the
// section. Build time is the median over Samples full builds. LiveHeapKiB is
// the row's own footprint: the live heap after forced collections with the
// row's last matrix still reachable, minus the same reading before the row.
// PeakRSSKiB, the process-wide resident high-water mark, is recorded only on
// the frozen seed rows. HostCPUs and GOMAXPROCS record the host each
// measured row ran on.
type BuildRun struct {
	N             int     `json:"n"`
	Leaf          int     `json:"leaf"`
	Workers       int     `json:"workers"`
	HostCPUs      int     `json:"host_cpus,omitempty"`
	GOMAXPROCS    int     `json:"gomaxprocs,omitempty"`
	Mode          string  `json:"mode"`
	RelTol        float64 `json:"reltol"`
	Samples       int     `json:"samples"`
	MedianBuildNS int64   `json:"median_build_ns"`
	LiveHeapKiB   int64   `json:"live_heap_kib,omitempty"`
	PeakRSSKiB    int64   `json:"peak_rss_kib,omitempty"`
	EstRelErr     float64 `json:"est_relerr"`
	RelErr        float64 `json:"relerr"`
}

// buildCases picks the construction sweep sizes per scale. Every scale that
// CI or the acceptance run uses keeps n=20000 reachable: the paper-scale
// improvement target is measured there.
func buildCases(scale string) []int {
	switch scale {
	case "tiny":
		return []int{2000}
	case "medium":
		return []int{5000, 20000, 40000}
	case "paper":
		return []int{20000, 80000}
	default: // small
		return []int{5000, 20000}
	}
}

// buildWorkerSweep is the worker axis: 1 (the like-for-like baseline
// comparison point) up to the resolved thread count, powers of two between.
func buildWorkerSweep(resolved int) []int {
	ws := []int{1}
	for w := 2; w < resolved; w *= 2 {
		ws = append(ws, w)
	}
	if resolved > 1 {
		ws = append(ws, resolved)
	}
	return ws
}

// BuildBench measures wall-clock construction time across problem sizes and
// worker counts in error-controlled mode. Rows land in the build section of
// BENCH_matvec.json next to the apply trajectory.
//
// Self-asserting: every build's a-posteriori certificate must come in at or
// under the requested tolerance, so running the experiment (CI runs it at
// -scale tiny, n=2000) is itself a correctness check on the accelerated
// construction path.
func BuildBench(opt Options) error {
	out := opt.out()
	k, err := opt.kernel()
	if err != nil {
		return err
	}
	reltol := opt.RelTol
	if reltol <= 0 {
		reltol = 1e-6
	}
	resolved := par.Resolve(opt.Threads)
	samples := opt.reps()
	if samples < 3 {
		samples = 3
	}
	fmt.Fprintf(out, "\n# build: construction-time trajectory (kernel=%s reltol=%.0e scale=%s samples=%d)\n",
		k.Name(), reltol, opt.Scale, samples)
	tb := newTable(out, "median build time and live heap",
		"n", "leaf", "workers", "mode", "build_ms", "live_heap_MiB", "est err", "relerr")

	var runs []BuildRun
	measure := func(n, leaf, workers int, cfg core.Config) error {
		before := liveHeapBytes()
		pts := pointset.Cube(n, 3, opt.seed())
		times := make([]int64, samples)
		var m *core.Matrix
		for s := range times {
			t0 := time.Now()
			mm, err := core.Build(pts, k, cfg)
			if err != nil {
				return fmt.Errorf("build n=%d workers=%d: %w", n, workers, err)
			}
			times[s] = time.Since(t0).Nanoseconds()
			m = mm
		}
		live := liveHeapBytes() - before // m is used below, so still reachable
		sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })

		b := randVec(n, opt.seed()+7)
		y := m.Apply(b)
		run := BuildRun{
			N: n, Leaf: leaf, Workers: workers, Mode: "blocked", RelTol: reltol,
			HostCPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			Samples:       samples,
			MedianBuildNS: times[len(times)/2],
			LiveHeapKiB:   live / 1024,
			EstRelErr:     m.Stats().EstRelErr,
			RelErr:        m.RelErrorVs(b, y, core.DefaultErrorRows, opt.seed()+13),
		}
		if run.EstRelErr > reltol {
			return fmt.Errorf("build bench: n=%d %s certificate %.3e exceeds requested reltol %g",
				n, run.Mode, run.EstRelErr, reltol)
		}
		runs = append(runs, run)
		tb.row(fmt.Sprintf("%d", n), fmt.Sprintf("%d", leaf), fmt.Sprintf("%d", workers), run.Mode,
			fmt.Sprintf("%.1f", float64(run.MedianBuildNS)/1e6),
			fmt.Sprintf("%.1f", float64(run.LiveHeapKiB)/1024),
			fmt.Sprintf("%.2e", run.EstRelErr), fmt.Sprintf("%.2e", run.RelErr))
		return nil
	}

	for _, n := range buildCases(opt.Scale) {
		leaf := leafSizeFor(n)
		// Normal mode: stored-block assembly is part of the build (and of the
		// acceleration), and the certificate apply reads stored blocks instead
		// of re-evaluating the kernel, so the rows measure construction, not
		// the apply path.
		base := core.Config{Kind: core.DataDriven, Mode: core.Normal, RelTol: reltol,
			LeafSize: leaf, Sampler: opt.sampler()}
		for _, w := range buildWorkerSweep(resolved) {
			cfg := base
			cfg.Workers = w
			if err := measure(n, leaf, w, cfg); err != nil {
				return err
			}
		}
	}
	tb.flush()

	// This experiment owns the build section except its frozen seed rows.
	return mergeReport(opt, k.Name(), resolved, "build", func(rep *MatvecReport) {
		var seed []BuildRun
		for _, r := range rep.Build {
			if r.Mode == "seed" {
				seed = append(seed, r)
			}
		}
		rep.Build = append(seed, runs...)
	})
}

// liveHeapBytes forces two collections and returns the live heap the
// second one marked. It takes two because a sync.Pool keeps its contents,
// and so the matrices whose workspace pools they sit in, through one
// collection as victims.
func liveHeapBytes() int64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return int64(s[0].Value.Uint64())
}
