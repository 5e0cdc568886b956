package registry

import (
	"sync/atomic"
	"time"

	"h2ds/internal/core"
	"h2ds/internal/serve"
)

// counters is the registry's lifecycle instrumentation: pure atomics,
// aggregated into a Stats value on demand.
type counters struct {
	buildsStarted   atomic.Int64
	buildsSucceeded atomic.Int64
	buildsFailed    atomic.Int64
	evictions       atomic.Int64
	rehydrations    atomic.Int64
	swapDrains      atomic.Int64
	downgrades      atomic.Int64
	installs        atomic.Int64
	shutdownSpills  atomic.Int64

	spillCleanupErrors atomic.Int64
}

// Stats is a point-in-time snapshot of the registry's lifecycle counters.
// BuildsFailed includes cancelled and superseded (discarded) builds.
type Stats struct {
	BuildsStarted   int64 `json:"builds_started"`
	BuildsSucceeded int64 `json:"builds_succeeded"`
	BuildsFailed    int64 `json:"builds_failed"`
	Evictions       int64 `json:"evictions"`
	Rehydrations    int64 `json:"rehydrations"`
	SwapDrains      int64 `json:"swap_drains"`
	Downgrades      int64 `json:"downgrades"`      // budget overages resolved by hybrid storage shrink instead of eviction
	Installs        int64 `json:"installs"`        // pre-built matrices installed directly (replica imports)
	ShutdownSpills  int64 `json:"shutdown_spills"` // builds that completed during Close and were persisted as spills

	// SpillCleanupErrors counts spill files that could not be removed when
	// their instance was deleted, rebuilt, or rehydrated. Each one is leaked
	// disk in the spill dir; a growing count means the dir needs operator
	// attention (permissions, immutable files).
	SpillCleanupErrors int64 `json:"spill_cleanup_errors"`

	// Construction-cache counters (default builder only): cumulative
	// geometry-fingerprint hits/misses and currently retained geometries.
	BuildCacheHits    int64 `json:"build_cache_hits"`
	BuildCacheMisses  int64 `json:"build_cache_misses"`
	BuildCacheEntries int   `json:"build_cache_entries"`

	QueueDepth int   `json:"queue_depth"` // builds accepted but not yet started
	Instances  int   `json:"instances"`
	Ready      int   `json:"ready"`
	MemBytes   int64 `json:"mem_bytes"`  // total across Ready instances
	MemBudget  int64 `json:"mem_budget"` // 0 = unlimited

	// States counts instances by lifecycle state name; MemHeadroom is the
	// budget minus the Ready total (-1 when unbudgeted). Both feed the
	// /readyz readiness endpoint, which the cluster router uses for replica
	// selection.
	States      map[string]int `json:"states"`
	MemHeadroom int64          `json:"mem_headroom"`
}

// Stats returns a snapshot of the registry counters.
func (r *Registry) Stats() Stats {
	s := Stats{
		BuildsStarted:      r.st.buildsStarted.Load(),
		BuildsSucceeded:    r.st.buildsSucceeded.Load(),
		BuildsFailed:       r.st.buildsFailed.Load(),
		Evictions:          r.st.evictions.Load(),
		Rehydrations:       r.st.rehydrations.Load(),
		SwapDrains:         r.st.swapDrains.Load(),
		Downgrades:         r.st.downgrades.Load(),
		Installs:           r.st.installs.Load(),
		ShutdownSpills:     r.st.shutdownSpills.Load(),
		SpillCleanupErrors: r.st.spillCleanupErrors.Load(),
		QueueDepth:         len(r.queue),
		MemBudget:          r.cfg.MemBudget,
		States:             make(map[string]int),
	}
	if r.bcache != nil {
		s.BuildCacheHits, s.BuildCacheMisses, s.BuildCacheEntries = r.bcache.Stats()
	}
	r.mu.Lock()
	insts := make([]*instance, 0, len(r.items))
	for _, inst := range r.items {
		insts = append(insts, inst)
	}
	r.mu.Unlock()
	s.Instances = len(insts)
	for _, inst := range insts {
		inst.mu.Lock()
		s.States[inst.state.String()]++
		if inst.state == StateReady {
			s.Ready++
			s.MemBytes += inst.mem
		}
		inst.mu.Unlock()
	}
	s.MemHeadroom = -1
	if s.MemBudget > 0 {
		s.MemHeadroom = s.MemBudget - s.MemBytes
	}
	return s
}

// Info is a snapshot of one instance for listings and state polling. The
// embedded matrix summary is present once the instance has (or had) a built
// matrix; Serve and Sweeps carry the live batcher and sweep counters while
// Ready.
type Info struct {
	Name  string    `json:"name"`
	State State     `json:"state"`
	Spec  BuildSpec `json:"spec"`

	Stage          string `json:"stage,omitempty"`            // build progress while a build runs
	BuildElapsedMS int64  `json:"build_elapsed_ms,omitempty"` // since the running build started
	Rebuilding     bool   `json:"rebuilding,omitempty"`       // hot-swap build in progress while Ready
	Error          string `json:"error,omitempty"`            // last build/spill failure

	core.Summary
	MemBytes int64 `json:"mem_bytes,omitempty"`

	Spilled bool `json:"spilled,omitempty"` // evicted with a spill file: next Apply rehydrates

	CreatedAt time.Time `json:"created_at"`
	ReadyAt   time.Time `json:"ready_at,omitempty"`
	LastApply time.Time `json:"last_apply,omitempty"`

	Serve  *serve.Stats     `json:"serve,omitempty"`
	Sweeps *core.SweepStats `json:"sweeps,omitempty"`
}

// info snapshots the instance under its lock.
func (in *instance) info() Info {
	in.mu.Lock()
	defer in.mu.Unlock()
	inf := Info{
		Name:      in.name,
		State:     in.state,
		Spec:      in.spec,
		Stage:     in.stage,
		MemBytes:  in.mem,
		Spilled:   in.spillPath != "",
		CreatedAt: in.createdAt,
		ReadyAt:   in.readyAt,
		LastApply: in.lastApply,
	}
	if in.err != nil {
		inf.Error = in.err.Error()
	}
	if in.building {
		inf.Rebuilding = in.state == StateReady
		if !in.buildStart.IsZero() {
			inf.BuildElapsedMS = time.Since(in.buildStart).Milliseconds()
		}
	}
	if in.cur != nil {
		m := in.cur.b.Matrix()
		inf.Summary = m.Summary()
		sw := m.SweepStats()
		inf.Sweeps = &sw
		st := in.cur.b.Stats()
		inf.Serve = &st
	}
	return inf
}
