package main

import (
	"fmt"
	"runtime"
	"time"

	"h2ds/internal/core"
	"h2ds/internal/kernel"
	"h2ds/internal/pointset"
)

// setup_s is the median of at least setupReps timed builds spanning at
// least setupTime, after one untimed build that warms caches and the
// allocator: identical builds vary by tens of percent, so one sample is not
// enough, and sub-second builds need many.
const (
	setupReps = 5
	setupTime = 3 * time.Second
)

// setupBuilds times repeated core.Build calls (no construction cache) of
// the workload's matrix, reports setup_s and the build-phase layers, and
// returns the last matrix built. Only one matrix is alive at a time: the
// solve matrix holds ~600 MiB of stored blocks.
func (r *run) setupBuilds(pts *pointset.Points, k kernel.Pairwise, cfg core.Config) (*core.Matrix, error) {
	var (
		m      *core.Matrix
		secs   []float64
		phases []core.BuildPhases
	)
	var spent time.Duration
	for i := 0; i <= setupReps || spent < setupTime; i++ {
		m = nil
		runtime.GC()
		h := r.tr.begin("core.build", 0, 0)
		t0 := time.Now()
		var err error
		m, err = core.Build(pts, k, cfg)
		el := time.Since(t0)
		h.end()
		r.op(err)
		if err != nil {
			return nil, fmt.Errorf("set-up build: %w", err)
		}
		if i > 0 {
			spent += el
			secs = append(secs, el.Seconds())
			phases = append(phases, m.Stats().Phases)
		}
	}
	r.metrics["setup_s"] = median(secs)
	r.metrics["mem_mib"] = float64(m.Memory().Total()) / (1 << 20)
	buildLayers(phases, r.metrics)
	r.ctx.Leaf = m.Tree.LeafSize
	r.note("set-up builds (s): %.4f (median of %d after a warm-up)", secs, len(secs))
	return m, nil
}
