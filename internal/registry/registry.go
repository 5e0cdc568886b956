// Package registry manages a fleet of named H² matrix instances on top of
// internal/serve — the model-lifecycle layer of the serving stack. Each
// instance is declared by a BuildSpec (synthetic build or load-from-file)
// and moves through an explicit state machine:
//
//	Pending ──▶ Building ──▶ Ready ──▶ Evicted ──▶ (rehydrate: Pending ...)
//	                │          │  ▲
//	                ▼          │  └── hot-swap rebuild (stays Ready)
//	              Failed       ▼
//	                         Closed (deleted / registry shutdown)
//
// Builds run on a bounded async queue drained by a pool of panic-recovered,
// context-cancellable workers that stamp per-stage progress. Ready instances
// own a serve.Batcher and route Apply by name. A global memory budget
// (summing core.Matrix.Memory().Total() across Ready instances) triggers
// LRU eviction by last-apply time; the victim's batcher is drained before
// its memory is released, optionally spilling the generators to disk for
// lazy rehydration on the next Apply. Rebuilding an existing name builds
// the new version in the background and atomically swaps the batcher while
// draining the old one — a zero-downtime reload.
package registry

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"h2ds/internal/core"
	"h2ds/internal/serve"
)

// State is an instance's position in the lifecycle state machine.
type State int

const (
	// StatePending: accepted, waiting for a build worker.
	StatePending State = iota
	// StateBuilding: a worker is constructing or loading the matrix.
	StateBuilding
	// StateReady: serving; owns a live batcher.
	StateReady
	// StateFailed: the build errored or panicked; Err explains why.
	StateFailed
	// StateEvicted: memory budget reclaimed the instance; with a spill file
	// it rehydrates on the next Apply.
	StateEvicted
	// StateClosed: deleted or shut down; terminal.
	StateClosed
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case StatePending:
		return "pending"
	case StateBuilding:
		return "building"
	case StateReady:
		return "ready"
	case StateFailed:
		return "failed"
	case StateEvicted:
		return "evicted"
	case StateClosed:
		return "closed"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// MarshalJSON renders the state as its string name.
func (s State) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// UnmarshalJSON parses the string form written by MarshalJSON, so HTTP
// clients can decode Info snapshots back into typed values.
func (s *State) UnmarshalJSON(data []byte) error {
	var name string
	if err := json.Unmarshal(data, &name); err != nil {
		return err
	}
	for st := StatePending; st <= StateClosed; st++ {
		if st.String() == name {
			*s = st
			return nil
		}
	}
	return fmt.Errorf("registry: unknown state %q", name)
}

var (
	// ErrClosed is returned after Close has been called.
	ErrClosed = errors.New("registry: closed")
	// ErrQueueFull is returned by Create when the build queue is at
	// capacity.
	ErrQueueFull = errors.New("registry: build queue full")
	// ErrBusy is returned by Create while a build for the same name is
	// already queued or running.
	ErrBusy = errors.New("registry: build already in progress")
	// ErrNotFound is returned for names the registry does not hold.
	ErrNotFound = errors.New("registry: no such instance")
	// ErrNotReady is returned by Apply/WaitReady for instances that cannot
	// serve and will not become serveable on their own (failed builds,
	// evictions without a spill file).
	ErrNotReady = errors.New("registry: instance not ready")
	// ErrInvalidSpec wraps synchronous Create rejections — bad names and
	// specs that can never build (unknown enums, out-of-range tolerances) —
	// so HTTP layers can map them to 400 rather than 500.
	ErrInvalidSpec = errors.New("registry: invalid spec")
)

// Config tunes a Registry. The zero value is usable.
type Config struct {
	// Workers is the number of concurrent build workers (default 2).
	Workers int

	// QueueDepth bounds builds that are accepted but not yet started
	// (default 8). At the limit Create fails fast with ErrQueueFull.
	QueueDepth int

	// MemBudget bounds the total Memory().Total() bytes across Ready
	// instances; exceeding it after a build completes evicts
	// least-recently-applied instances until the total fits. 0 disables
	// eviction.
	MemBudget int64

	// SpillDir, when non-empty, receives serialized generators of evicted
	// instances (name.h2spill) so they can rehydrate lazily on the next
	// Apply, and of every Ready instance at Close (persistence across
	// restarts). Empty disables spilling: evicted instances must be
	// re-created explicitly.
	SpillDir string

	// Batch configures each instance's serve.Batcher.
	Batch serve.Config

	// Builder overrides how specs become matrices (default: BuildWithCache
	// through the registry's shared construction cache). Embedders use it
	// for custom matrix sources; tests for fault injection. Setting it
	// bypasses the construction cache: a custom builder that falls back to
	// the stock path calls BuildWithCache(ctx, sp, setStage, nil).
	Builder Builder

	// CacheEntries sizes the construction cache the default builder shares
	// across this registry's builds: tenants (and hot-swap rebuilds) whose
	// geometry and tree/sampling parameters fingerprint identically reuse
	// the spatial tree and Algorithm 1 hierarchy (core.BuildCache). 0 means
	// core.DefaultBuildCacheEntries; negative disables caching. Ignored
	// when Builder is set.
	CacheEntries int
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 8
	}
	return c
}

// version is one served generation of an instance: a batcher plus the
// in-flight Apply calls routed at it. Whoever unlinks a version from its
// instance drains it (inflight.Wait, then Close) exactly once.
type version struct {
	b        *serve.Batcher
	inflight sync.WaitGroup
}

// drain waits out Apply calls already routed at this version, then drains
// and closes the batcher.
func (v *version) drain() {
	v.inflight.Wait()
	v.b.Close()
}

// instance is one named entry. Fields below mu are protected by it; change
// is closed and replaced on every state transition (broadcast to waiters).
type instance struct {
	name string

	mu        sync.Mutex
	change    chan struct{}
	state     State
	spec      BuildSpec
	cur       *version // non-nil iff state == Ready
	err       error    // last build/spill failure
	mem       int64    // Memory().Total() of the current version
	spillPath string   // serialized generators of the evicted version
	spilling  bool     // eviction is writing the spill file

	building    bool // a build job is queued or running
	gen         int  // bumped by Delete; stale jobs discard their result
	stage       string
	buildStart  time.Time
	cancelBuild context.CancelFunc

	createdAt time.Time
	readyAt   time.Time
	lastApply time.Time
}

// broadcastLocked wakes every waiter; callers hold inst.mu.
func (in *instance) broadcastLocked() {
	close(in.change)
	in.change = make(chan struct{})
}

// buildJob is one unit of work on the build queue.
type buildJob struct {
	inst      *instance
	spec      BuildSpec
	gen       int
	swap      bool   // rebuild of a Ready instance: keep serving, swap on success
	rehydrate bool   // reload of an evicted instance from its spill file
	loadPath  string // non-empty for rehydration
	ctx       context.Context
	cancel    context.CancelFunc
}

// Registry is the concurrent manager of named matrix instances. All methods
// are safe for concurrent use.
type Registry struct {
	cfg Config

	mu     sync.Mutex
	items  map[string]*instance
	closed bool

	queue   chan *buildJob
	rootCtx context.Context
	cancel  context.CancelFunc
	workers sync.WaitGroup

	closeOnce sync.Once
	closedCh  chan struct{}

	// bcache is the construction cache behind the default builder (nil when
	// a custom Builder is installed or CacheEntries < 0).
	bcache *core.BuildCache

	st counters
}

// BuildCache exposes the registry's shared construction cache (nil when
// disabled or when a custom Builder is installed). Tests and the stats
// endpoint read its hit/miss counters.
func (r *Registry) BuildCache() *core.BuildCache { return r.bcache }

// New starts a registry with the given configuration. Call Close to drain
// every instance and release the build workers.
func New(cfg Config) *Registry {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	r := &Registry{
		cfg:      cfg,
		items:    make(map[string]*instance),
		queue:    make(chan *buildJob, cfg.QueueDepth),
		rootCtx:  ctx,
		cancel:   cancel,
		closedCh: make(chan struct{}),
	}
	if r.cfg.Builder == nil {
		if cfg.CacheEntries >= 0 {
			r.bcache = core.NewBuildCache(cfg.CacheEntries)
		}
		r.cfg.Builder = func(ctx context.Context, sp BuildSpec, setStage func(string)) (*core.Matrix, error) {
			return BuildWithCache(ctx, sp, setStage, r.bcache)
		}
	}
	r.workers.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go r.worker()
	}
	return r
}

// Create declares (or redeclares) the named instance from spec and enqueues
// its build. It returns as soon as the job is accepted; progress is
// observable via Get/List and awaitable via WaitReady. Redeclaring a Ready
// name performs a zero-downtime hot swap: the old version keeps serving
// until the new one is built, then the batcher is swapped atomically and
// the old one drained. Redeclaring a Failed or Evicted name rebuilds it.
func (r *Registry) Create(name string, spec BuildSpec) error {
	if err := checkName(name); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalidSpec, err)
	}
	spec = spec.withDefaults()
	if err := spec.validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalidSpec, err)
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return ErrClosed
	}
	inst := r.items[name]
	fresh := false
	if inst == nil {
		fresh = true
		inst = &instance{
			name:      name,
			change:    make(chan struct{}),
			state:     StatePending,
			spec:      spec,
			createdAt: time.Now(),
		}
	}

	inst.mu.Lock()
	defer inst.mu.Unlock()
	if inst.building {
		return ErrBusy
	}
	job := &buildJob{inst: inst, spec: spec, gen: inst.gen, swap: inst.state == StateReady}
	job.ctx, job.cancel = context.WithCancel(r.rootCtx)
	select {
	case r.queue <- job:
	default:
		job.cancel()
		return ErrQueueFull
	}
	if fresh {
		r.items[name] = inst
	}
	inst.building = true
	inst.cancelBuild = job.cancel
	inst.spec = spec
	if !job.swap {
		if inst.state != StatePending {
			inst.state = StatePending
			inst.err = nil
			inst.broadcastLocked()
		}
	}
	return nil
}

// enqueueRehydrate schedules an evicted instance's reload from its spill
// file. It re-checks the instance under the registry→instance lock order
// (callers must hold neither lock), so concurrent Applies on the same
// evicted name enqueue exactly one job.
func (r *Registry) enqueueRehydrate(inst *instance) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return ErrClosed
	}
	inst.mu.Lock()
	defer inst.mu.Unlock()
	if inst.building || inst.state != StateEvicted || inst.spillPath == "" {
		return nil // someone else already handled it, or the state moved on
	}
	job := &buildJob{
		inst: inst, spec: inst.spec, gen: inst.gen,
		rehydrate: true, loadPath: inst.spillPath,
	}
	job.ctx, job.cancel = context.WithCancel(r.rootCtx)
	select {
	case r.queue <- job:
	default:
		job.cancel()
		return ErrQueueFull
	}
	inst.building = true
	inst.cancelBuild = job.cancel
	inst.state = StatePending
	inst.broadcastLocked()
	return nil
}

// worker drains the build queue until Close closes it.
func (r *Registry) worker() {
	defer r.workers.Done()
	for job := range r.queue {
		r.runJob(job)
	}
}

// runJob executes one build: stage-stamped, panic-recovered, cancellable at
// stage boundaries via the job context.
func (r *Registry) runJob(job *buildJob) {
	defer job.cancel()
	r.st.buildsStarted.Add(1)
	inst := job.inst

	inst.mu.Lock()
	if inst.gen != job.gen || inst.state == StateClosed {
		inst.mu.Unlock()
		r.finishDiscard(job, nil)
		return
	}
	if !job.swap {
		inst.state = StateBuilding
		inst.broadcastLocked()
	}
	inst.stage = "starting"
	inst.buildStart = time.Now()
	inst.mu.Unlock()

	setStage := func(s string) {
		inst.mu.Lock()
		inst.stage = s
		inst.mu.Unlock()
	}

	if err := job.ctx.Err(); err != nil {
		r.finishFail(job, err)
		return
	}
	m, err := r.execute(job, setStage)
	if err == nil {
		if cerr := job.ctx.Err(); cerr != nil {
			// A cancellation that raced the build's completion: Delete asked
			// for the result to be discarded, but a registry shutdown did not
			// — a finished matrix is exactly what Close persists for Ready
			// instances, so land it Evicted-with-spill instead of throwing
			// the build away (and instead of leaking a Ready batcher past
			// Close, which has already swept the instance table by the time
			// the worker pool is joined).
			if r.rootCtx.Err() != nil && r.finishShutdownSpill(job, m) {
				return
			}
			r.finishFail(job, cerr)
			return
		}
		r.finishReady(job, m)
		return
	}
	r.finishFail(job, err)
}

// finishShutdownSpill persists a build that completed while the registry was
// shutting down: the generators go to the spill dir and the instance lands
// Evicted-with-spill (then Closed by Close's sweep, which preserves the spill
// path), so the work survives to the next process via BuildSpec.Path. It
// reports false — falling back to the plain cancellation path — when there is
// no spill dir, the job is itself a rehydration (its spill file already
// exists), a Delete recycled the name, or the spill write fails.
func (r *Registry) finishShutdownSpill(job *buildJob, m *core.Matrix) bool {
	if r.cfg.SpillDir == "" || job.rehydrate {
		return false
	}
	inst := job.inst
	inst.mu.Lock()
	stale := inst.gen != job.gen
	inst.mu.Unlock()
	if stale {
		return false
	}
	path, err := r.spill(inst.name, m)
	if err != nil {
		return false
	}
	inst.mu.Lock()
	defer inst.mu.Unlock()
	if inst.gen != job.gen {
		r.removeSpill(path)
		return false
	}
	inst.building = false
	inst.cancelBuild = nil
	inst.stage = ""
	inst.err = nil
	inst.state = StateEvicted
	inst.spillPath = path
	inst.broadcastLocked()
	r.st.buildsSucceeded.Add(1)
	r.st.shutdownSpills.Add(1)
	return true
}

// execute runs the builder under panic recovery.
func (r *Registry) execute(job *buildJob, setStage func(string)) (m *core.Matrix, err error) {
	defer func() {
		if p := recover(); p != nil {
			m, err = nil, fmt.Errorf("registry: build panicked: %v", p)
		}
	}()
	if job.rehydrate {
		setStage("rehydrate")
		return loadMatrix(job.loadPath)
	}
	return r.cfg.Builder(job.ctx, job.spec, setStage)
}

// finishFail records a failed build. A failed hot-swap leaves the old
// version serving (state stays Ready) with the error recorded; anything
// else lands in Failed.
func (r *Registry) finishFail(job *buildJob, err error) {
	r.st.buildsFailed.Add(1)
	inst := job.inst
	inst.mu.Lock()
	defer inst.mu.Unlock()
	if inst.gen != job.gen || inst.state == StateClosed {
		return
	}
	inst.building = false
	inst.cancelBuild = nil
	inst.stage = ""
	inst.err = err
	if !(job.swap && inst.state == StateReady) {
		inst.state = StateFailed
	}
	inst.broadcastLocked()
}

// finishDiscard throws away the result of a job that lost a gen race
// (Delete/Create recycled the name while it was queued).
func (r *Registry) finishDiscard(job *buildJob, m *core.Matrix) {
	r.st.buildsFailed.Add(1)
	_ = m // nothing owns resources yet; the batcher is created only in finishReady
}

// finishReady installs a built matrix: a new batcher version is linked in
// atomically, the previous version (hot swap) is drained, waiters are woken,
// and the memory budget is enforced.
func (r *Registry) finishReady(job *buildJob, m *core.Matrix) {
	nv := &version{b: serve.NewBatcher(m, r.cfg.Batch)}
	mem := m.Memory().Total()

	inst := job.inst
	inst.mu.Lock()
	if inst.gen != job.gen || inst.state == StateClosed {
		inst.mu.Unlock()
		nv.b.Close()
		r.finishDiscard(job, m)
		return
	}
	old := inst.cur
	spill := inst.spillPath
	inst.cur = nv
	inst.state = StateReady
	inst.err = nil
	inst.mem = mem
	inst.building = false
	inst.cancelBuild = nil
	inst.stage = ""
	inst.spillPath = ""
	inst.readyAt = time.Now()
	// A fresh version counts as recent use for LRU purposes; otherwise a
	// just-rehydrated instance with a stale lastApply would be the eviction
	// victim again immediately, thrashing spill/reload.
	inst.lastApply = inst.readyAt
	inst.broadcastLocked()
	inst.mu.Unlock()

	r.st.buildsSucceeded.Add(1)
	if job.rehydrate {
		r.st.rehydrations.Add(1)
	}
	if old != nil {
		old.drain()
		r.st.swapDrains.Add(1)
	}
	if spill != "" {
		// The instance is live again (rebuilt or rehydrated); the spill file
		// is untracked from here on, so remove it rather than leak it.
		r.removeSpill(spill)
	}
	r.enforceBudget()
}

// Apply routes y = Â b to the named instance, coalescing with concurrent
// callers through its batcher. Pending/Building instances are awaited
// (bounded by ctx); an Evicted instance with a spill file is rehydrated
// lazily and then served. Failed and spill-less Evicted instances return
// an error wrapping ErrNotReady.
func (r *Registry) Apply(ctx context.Context, name string, b []float64) ([]float64, error) {
	v, err := r.acquireVersion(ctx, name)
	if err != nil {
		return nil, err
	}
	defer v.inflight.Done()
	return v.b.Apply(ctx, b)
}

// ApplyShard computes the scatter half of the distributed apply on the named
// instance: the coupling partials for shard `shard` of an (nshards,
// cutLevel) plan. The plan is re-derived from the local replica — identical
// on every holder of the same build — so the wire protocol carries only the
// three integers.
func (r *Registry) ApplyShard(ctx context.Context, name string, nshards, cutLevel, shard int, b []float64, transpose bool) ([]float64, error) {
	v, err := r.acquireVersion(ctx, name)
	if err != nil {
		return nil, err
	}
	defer v.inflight.Done()
	return v.b.ApplyShard(nshards, cutLevel, shard, b, transpose)
}

// ApplyGather runs the gather half of the distributed apply on the named
// instance, merging the shard partials (nil entries are recomputed locally)
// and finishing the downward and nearfield sweeps. The result is
// bitwise-equal to Apply on the same vector.
func (r *Registry) ApplyGather(ctx context.Context, name string, nshards, cutLevel int, b []float64, parts [][]float64, transpose bool) ([]float64, error) {
	v, err := r.acquireVersion(ctx, name)
	if err != nil {
		return nil, err
	}
	defer v.inflight.Done()
	return v.b.ApplyGather(nshards, cutLevel, b, parts, transpose)
}

// acquireVersion waits until the named instance is Ready and returns its
// current version with the in-flight count held — the caller must release it
// with v.inflight.Done() when the routed call returns. Waiting and lazy
// rehydration follow Apply's documented rules.
func (r *Registry) acquireVersion(ctx context.Context, name string) (*version, error) {
	for {
		r.mu.Lock()
		inst := r.items[name]
		closed := r.closed
		r.mu.Unlock()
		if inst == nil {
			if closed {
				return nil, ErrClosed
			}
			return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
		}

		inst.mu.Lock()
		switch inst.state {
		case StateReady:
			v := inst.cur
			v.inflight.Add(1)
			inst.lastApply = time.Now()
			inst.mu.Unlock()
			return v, nil

		case StatePending, StateBuilding:
			ch := inst.change
			inst.mu.Unlock()
			select {
			case <-ch:
			case <-ctx.Done():
				return nil, ctx.Err()
			}

		case StateEvicted:
			if inst.spilling || inst.building {
				ch := inst.change
				inst.mu.Unlock()
				select {
				case <-ch:
				case <-ctx.Done():
					return nil, ctx.Err()
				}
				continue
			}
			if inst.spillPath == "" {
				err := inst.err
				inst.mu.Unlock()
				if err != nil {
					return nil, fmt.Errorf("%w: %q evicted (spill failed: %v)", ErrNotReady, name, err)
				}
				return nil, fmt.Errorf("%w: %q evicted without spill; re-create it", ErrNotReady, name)
			}
			inst.mu.Unlock()
			// Lazy rehydration: kick off the reload (idempotent under the
			// proper lock order) and loop back to wait for it.
			if err := r.enqueueRehydrate(inst); err != nil {
				return nil, err
			}

		case StateFailed:
			err := inst.err
			inst.mu.Unlock()
			return nil, fmt.Errorf("%w: %q build failed: %v", ErrNotReady, name, err)

		case StateClosed:
			inst.mu.Unlock()
			return nil, fmt.Errorf("%w: %q", ErrNotFound, name)

		default:
			inst.mu.Unlock()
			return nil, fmt.Errorf("registry: %q in unexpected state", name)
		}
	}
}

// WaitReady blocks until the named instance is Ready (nil), reaches a state
// that will not become Ready on its own (error wrapping ErrNotReady), or
// ctx expires.
func (r *Registry) WaitReady(ctx context.Context, name string) error {
	for {
		r.mu.Lock()
		inst := r.items[name]
		r.mu.Unlock()
		if inst == nil {
			return fmt.Errorf("%w: %q", ErrNotFound, name)
		}
		inst.mu.Lock()
		switch inst.state {
		case StateReady:
			inst.mu.Unlock()
			return nil
		case StateFailed:
			err := inst.err
			inst.mu.Unlock()
			return fmt.Errorf("%w: %q build failed: %v", ErrNotReady, name, err)
		case StateEvicted:
			inst.mu.Unlock()
			return fmt.Errorf("%w: %q evicted", ErrNotReady, name)
		case StateClosed:
			inst.mu.Unlock()
			return fmt.Errorf("%w: %q", ErrNotFound, name)
		default:
			ch := inst.change
			inst.mu.Unlock()
			select {
			case <-ch:
			case <-ctx.Done():
				return ctx.Err()
			}
		}
	}
}

// Matrix returns the named instance's current matrix when it is Ready. The
// matrix is immutable; the pointer stays valid even if the instance is
// later evicted or swapped.
func (r *Registry) Matrix(name string) (*core.Matrix, bool) {
	r.mu.Lock()
	inst := r.items[name]
	r.mu.Unlock()
	if inst == nil {
		return nil, false
	}
	inst.mu.Lock()
	defer inst.mu.Unlock()
	if inst.state != StateReady {
		return nil, false
	}
	return inst.cur.b.Matrix(), true
}

// MatrixWait returns the named instance's matrix under Apply's routing
// rules: Pending/Building are awaited (bounded by ctx) and a spilled Evicted
// instance is rehydrated lazily. It exists for callers that drive the
// matrix's workspace pool directly — the cluster's sharded scatter/gather —
// rather than routing vectors through the batcher. The matrix is immutable
// and remains valid even if the instance is evicted or swapped mid-use.
func (r *Registry) MatrixWait(ctx context.Context, name string) (*core.Matrix, error) {
	v, err := r.acquireVersion(ctx, name)
	if err != nil {
		return nil, err
	}
	m := v.b.Matrix()
	v.inflight.Done()
	return m, nil
}

// Install registers a pre-built matrix directly as a Ready instance, without
// going through the build queue — the cluster replication import path: a
// replica node receives the owner's serialized stream, rehydrates it, and
// installs the result as a read-only instance. Installing over an existing
// Ready instance performs the same atomic swap-and-drain as a hot-swap
// rebuild; installing while a build for the name is queued or running fails
// with ErrBusy (the build owns the name until it settles).
func (r *Registry) Install(name string, spec BuildSpec, m *core.Matrix) error {
	if err := checkName(name); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalidSpec, err)
	}
	nv := &version{b: serve.NewBatcher(m, r.cfg.Batch)}

	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		nv.b.Close()
		return ErrClosed
	}
	inst := r.items[name]
	if inst == nil {
		inst = &instance{
			name:      name,
			change:    make(chan struct{}),
			state:     StatePending,
			createdAt: time.Now(),
		}
		r.items[name] = inst
	}
	r.mu.Unlock()

	inst.mu.Lock()
	if inst.building {
		inst.mu.Unlock()
		nv.b.Close()
		return ErrBusy
	}
	old := inst.cur
	spill := inst.spillPath
	inst.cur = nv
	inst.state = StateReady
	inst.spec = spec
	inst.err = nil
	inst.mem = m.Memory().Total()
	inst.spillPath = ""
	inst.readyAt = time.Now()
	inst.lastApply = inst.readyAt
	inst.broadcastLocked()
	inst.mu.Unlock()

	if old != nil {
		old.drain()
		r.st.swapDrains.Add(1)
	}
	if spill != "" {
		r.removeSpill(spill)
	}
	r.st.installs.Add(1)
	r.enforceBudget()
	return nil
}

// Delete removes the named instance: new Applies fail with ErrNotFound, an
// in-flight build is cancelled and its result discarded, the batcher drains
// admitted requests, and any spill file is removed.
func (r *Registry) Delete(name string) error {
	r.mu.Lock()
	inst := r.items[name]
	if inst == nil {
		r.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	delete(r.items, name)
	r.mu.Unlock()

	inst.mu.Lock()
	inst.gen++
	if inst.cancelBuild != nil {
		inst.cancelBuild()
		inst.cancelBuild = nil
	}
	old := inst.cur
	spill := inst.spillPath
	inst.cur = nil
	inst.spillPath = ""
	inst.building = false
	inst.state = StateClosed
	inst.broadcastLocked()
	inst.mu.Unlock()

	if old != nil {
		old.drain()
	}
	if spill != "" {
		r.removeSpill(spill)
	}
	return nil
}

// enforceBudget reclaims memory from least-recently-applied Ready instances
// until the total fits the budget. For each LRU victim it first tries to
// DOWNGRADE: re-derive the matrix in hybrid mode with its block storage
// budget shrunk by the overage (core.Matrix.WithStorageBudget shares every
// generator, so this costs one block-subset re-assembly, not a rebuild) and
// swap the smaller version in, keeping the instance servable. Only when a
// victim has no stored blocks left to shed does it fall back to full
// eviction (with optional spill). Called after every successful build.
func (r *Registry) enforceBudget() {
	if r.cfg.MemBudget <= 0 {
		return
	}
	for {
		victim, old, over := r.pickVictim()
		if victim == nil {
			return
		}
		if r.downgrade(victim, old, over) {
			continue
		}
		r.evict(victim, old)
	}
}

// pickVictim returns the LRU Ready instance to reclaim — already transitioned
// to Evicted with its version unlinked, so no new Apply can route to it and
// a concurrent hot-swap completion cannot hand the same version out again —
// plus the current budget overage, or nil when the budget is satisfied.
// Applies arriving during the reclaim window wait on the change channel
// (spilling is set) and see either the downgraded Ready version or the final
// evicted state.
func (r *Registry) pickVictim() (*instance, *version, int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var total int64
	var victim *instance
	var victimLast time.Time
	for _, inst := range r.items {
		inst.mu.Lock()
		if inst.state == StateReady {
			total += inst.mem
			if victim == nil || inst.lastApply.Before(victimLast) {
				victim, victimLast = inst, inst.lastApply
			}
		}
		inst.mu.Unlock()
	}
	if total <= r.cfg.MemBudget || victim == nil {
		return nil, nil, 0
	}
	victim.mu.Lock()
	old := victim.cur
	victim.cur = nil
	victim.state = StateEvicted
	victim.spilling = true
	victim.mem = 0
	victim.broadcastLocked()
	victim.mu.Unlock()
	return victim, old, total - r.cfg.MemBudget
}

// downgrade tries to shrink the victim's block storage by the overage
// instead of evicting it. It reports true when the victim was handled (the
// smaller hybrid version was installed, or the instance moved on
// concurrently); false leaves the victim untouched for evict. Each pass
// strictly shrinks the stored-block footprint, so repeated passes over the
// same instance terminate at zero stored bytes and fall through to
// eviction.
func (r *Registry) downgrade(inst *instance, old *version, over int64) bool {
	if old == nil {
		return false
	}
	m := old.b.Matrix()
	if m.KernelLess() {
		// Oracle-built: stored-only by contract, and a loaded instance has no
		// kernel to re-assemble a reduced block set from. Evict-and-spill —
		// the spill stream carries the blocks verbatim, so rehydration works.
		return false
	}
	mem := m.Memory()
	stored := mem.Coupling + mem.Nearfield
	if stored == 0 || m.Cfg.Mode == core.OnTheFly {
		return false // nothing left to shed; evict
	}
	newBudget := stored - over
	if newBudget < 0 {
		newBudget = 0
	}
	old.drain()
	dm := m.WithStorageBudget(newBudget)
	nv := &version{b: serve.NewBatcher(dm, r.cfg.Batch)}

	inst.mu.Lock()
	if inst.state != StateEvicted {
		// Deleted or concurrently rebuilt while we were re-assembling; the
		// new owner supersedes this downgrade.
		inst.mu.Unlock()
		nv.b.Close()
		return true
	}
	inst.cur = nv
	inst.state = StateReady
	inst.mem = dm.Memory().Total()
	inst.spilling = false
	inst.err = nil
	// lastApply is deliberately left untouched: the instance stays LRU, so
	// further overage keeps shedding its blocks before touching warmer
	// instances.
	inst.broadcastLocked()
	inst.mu.Unlock()
	r.st.downgrades.Add(1)
	return true
}

// evict drains the victim's unlinked version — in-flight Apply calls and
// admitted requests finish first, so eviction never races a flush — and
// spills its generators when a spill dir is configured.
func (r *Registry) evict(inst *instance, old *version) {
	var spillPath string
	var spillErr error
	if old != nil {
		old.drain()
		if r.cfg.SpillDir != "" {
			spillPath, spillErr = r.spill(inst.name, old.b.Matrix())
		}
	}

	inst.mu.Lock()
	inst.spilling = false
	// Only publish the spill if the instance is still Evicted: a concurrent
	// Delete (Closed) or rebuild (Ready) supersedes this eviction, and its
	// spill file would be stale.
	if inst.state == StateEvicted && spillErr == nil {
		inst.spillPath = spillPath
	} else if spillPath != "" {
		r.removeSpill(spillPath)
	}
	if spillErr != nil {
		inst.err = spillErr
	}
	inst.broadcastLocked()
	inst.mu.Unlock()
	r.st.evictions.Add(1)
}

// spill writes a matrix's generators to the spill dir (temp file + fsync +
// rename + dir fsync, so a concurrent rehydration never sees a partial
// stream and a crash right after eviction cannot leave an empty or
// half-written file behind the final name — the matrix memory is already
// gone at that point, so a torn spill is data loss, not a cache miss).
func (r *Registry) spill(name string, m *core.Matrix) (string, error) {
	if err := os.MkdirAll(r.cfg.SpillDir, 0o755); err != nil {
		return "", err
	}
	final := filepath.Join(r.cfg.SpillDir, name+".h2spill")
	tmp, err := os.CreateTemp(r.cfg.SpillDir, name+".tmp-*")
	if err != nil {
		return "", err
	}
	if _, err := m.WriteTo(tmp); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return "", err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return "", err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return "", err
	}
	if err := os.Rename(tmp.Name(), final); err != nil {
		os.Remove(tmp.Name())
		return "", err
	}
	if err := syncDir(r.cfg.SpillDir); err != nil {
		return "", err
	}
	return final, nil
}

// syncDir fsyncs a directory so a preceding rename in it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// removeSpill deletes a spill file that is no longer tracked. Failures leak
// disk, not correctness, so they are logged and counted
// (Stats.SpillCleanupErrors) rather than propagated; an already-gone file is
// not an error.
func (r *Registry) removeSpill(path string) {
	if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
		r.st.spillCleanupErrors.Add(1)
		log.Printf("registry: spill cleanup of %s failed: %v", path, err)
	}
}

// Close shuts the registry down: admissions and creations stop, queued and
// in-flight builds are cancelled (marked Failed) without leaking their
// goroutines, every instance's batcher drains its admitted requests, and —
// when a spill dir is configured — every Ready instance's generators are
// persisted. Idempotent; concurrent calls return after the shutdown
// completes.
func (r *Registry) Close() {
	r.closeOnce.Do(func() {
		r.mu.Lock()
		r.closed = true
		r.mu.Unlock()

		// Cancel builds (workers observe it at stage boundaries), then stop
		// the queue and wait the workers out: no build goroutine outlives
		// Close.
		r.cancel()
		close(r.queue)
		r.workers.Wait()

		r.mu.Lock()
		insts := make([]*instance, 0, len(r.items))
		for _, inst := range r.items {
			insts = append(insts, inst)
		}
		r.mu.Unlock()

		for _, inst := range insts {
			inst.mu.Lock()
			wasReady := inst.state == StateReady
			old := inst.cur
			inst.cur = nil
			inst.building = false
			inst.state = StateClosed
			inst.broadcastLocked()
			inst.mu.Unlock()
			if old != nil {
				old.drain()
				if wasReady && r.cfg.SpillDir != "" {
					if p, err := r.spill(inst.name, old.b.Matrix()); err == nil {
						inst.mu.Lock()
						inst.spillPath = p
						inst.mu.Unlock()
					}
				}
			}
		}
		close(r.closedCh)
	})
	<-r.closedCh
}

// List returns a snapshot of every instance, sorted by name.
func (r *Registry) List() []Info {
	r.mu.Lock()
	insts := make([]*instance, 0, len(r.items))
	for _, inst := range r.items {
		insts = append(insts, inst)
	}
	r.mu.Unlock()
	infos := make([]Info, 0, len(insts))
	for _, inst := range insts {
		infos = append(infos, inst.info())
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	return infos
}

// Get returns a snapshot of one instance.
func (r *Registry) Get(name string) (Info, bool) {
	r.mu.Lock()
	inst := r.items[name]
	r.mu.Unlock()
	if inst == nil {
		return Info{}, false
	}
	return inst.info(), true
}
