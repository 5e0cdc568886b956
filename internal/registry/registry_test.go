package registry

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"h2ds/internal/core"
	"h2ds/internal/serve"
)

// tinySpec is a build spec small enough that a full build takes well under
// a second; seed varies the point cloud between instances.
func tinySpec(seed int64) BuildSpec {
	return BuildSpec{Kernel: "coulomb", Dist: "cube", N: 500, Dim: 3,
		Tol: 1e-4, Basis: "dd", Mem: "otf", Leaf: 50, Seed: seed}
}

func waitCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func randVec(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func maxRelDiff(a, b []float64) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	d := 0.0
	for i, v := range a {
		if r := math.Abs(b[i]-v) / (1 + math.Abs(v)); r > d {
			d = r
		}
	}
	return d
}

func TestLifecycleBasic(t *testing.T) {
	r := New(Config{Workers: 2})
	defer r.Close()
	if err := r.Create("a", tinySpec(1)); err != nil {
		t.Fatal(err)
	}
	if err := r.WaitReady(waitCtx(t), "a"); err != nil {
		t.Fatal(err)
	}
	m, ok := r.Matrix("a")
	if !ok {
		t.Fatal("no matrix for ready instance")
	}
	b := randVec(m.N, 7)
	ref := m.Apply(b)
	y, err := r.Apply(waitCtx(t), "a", b)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxRelDiff(ref, y); d > 1e-12 {
		t.Fatalf("registry apply diverges from direct apply: %g", d)
	}

	inf, ok := r.Get("a")
	if !ok || inf.State != StateReady || inf.Kernel != "coulomb" || inf.N != m.N {
		t.Fatalf("bad info: %+v", inf)
	}
	if inf.MemBytes <= 0 || inf.Serve == nil || inf.Serve.Served != 1 {
		t.Fatalf("info missing memory/serve stats: %+v", inf)
	}
	if l := r.List(); len(l) != 1 || l[0].Name != "a" {
		t.Fatalf("bad list: %+v", l)
	}
	st := r.Stats()
	if st.BuildsSucceeded != 1 || st.Ready != 1 || st.MemBytes != inf.MemBytes {
		t.Fatalf("bad stats: %+v", st)
	}

	if err := r.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Apply(waitCtx(t), "a", b); !errors.Is(err, ErrNotFound) {
		t.Fatalf("apply after delete: %v, want ErrNotFound", err)
	}
	if err := r.Delete("a"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete: %v, want ErrNotFound", err)
	}
}

func TestCreateValidation(t *testing.T) {
	r := New(Config{})
	defer r.Close()
	cases := []struct {
		name string
		spec BuildSpec
	}{
		{"bad/name", tinySpec(1)},
		{"", tinySpec(1)},
		{"x", BuildSpec{Kernel: "nosuch", N: 100}},
		{"x", BuildSpec{Dist: "nosuch", N: 100}},
		{"x", BuildSpec{Sampler: "nosuch", N: 100}},
		{"x", BuildSpec{Basis: "nosuch", N: 100}},
		{"x", BuildSpec{Mem: "nosuch", N: 100}},
		{"x", BuildSpec{N: -5}},
	}
	for _, c := range cases {
		if err := r.Create(c.name, c.spec); err == nil {
			t.Errorf("Create(%q, %+v) accepted", c.name, c.spec)
		}
	}
	if len(r.List()) != 0 {
		t.Fatal("rejected specs left instances behind")
	}
}

// TestBuildPanicLandsFailed injects a panicking build and checks it lands in
// Failed with the error surfaced, while the queue and workers stay live for
// subsequent builds.
func TestBuildPanicLandsFailed(t *testing.T) {
	r := New(Config{Workers: 1, Builder: func(ctx context.Context, sp BuildSpec, setStage func(string)) (*core.Matrix, error) {
		if sp.Path == "panic://kaboom" {
			panic("kaboom")
		}
		return BuildWithCache(ctx, sp, setStage, nil)
	}})
	defer r.Close()

	if err := r.Create("boom", BuildSpec{Path: "panic://kaboom"}); err != nil {
		t.Fatal(err)
	}
	err := r.WaitReady(waitCtx(t), "boom")
	if !errors.Is(err, ErrNotReady) {
		t.Fatalf("WaitReady on panicked build: %v, want ErrNotReady", err)
	}
	inf, ok := r.Get("boom")
	if !ok || inf.State != StateFailed || !strings.Contains(inf.Error, "kaboom") {
		t.Fatalf("panicked build info: %+v", inf)
	}
	if _, aerr := r.Apply(waitCtx(t), "boom", nil); !errors.Is(aerr, ErrNotReady) {
		t.Fatalf("apply on failed instance: %v", aerr)
	}

	// The worker survived the panic: the same queue builds the next spec.
	if err := r.Create("ok", tinySpec(2)); err != nil {
		t.Fatal(err)
	}
	if err := r.WaitReady(waitCtx(t), "ok"); err != nil {
		t.Fatalf("build after panic: %v", err)
	}

	// Redeclaring the failed name rebuilds it.
	if err := r.Create("boom", tinySpec(3)); err != nil {
		t.Fatal(err)
	}
	if err := r.WaitReady(waitCtx(t), "boom"); err != nil {
		t.Fatalf("rebuild of failed name: %v", err)
	}
	if st := r.Stats(); st.BuildsFailed != 1 || st.BuildsSucceeded != 2 {
		t.Fatalf("stats after panic+recovery: %+v", st)
	}
}

// TestAsyncBuildFailure checks an environmental failure (missing load path)
// surfaces asynchronously as Failed, not as a Create error.
func TestAsyncBuildFailure(t *testing.T) {
	r := New(Config{})
	defer r.Close()
	if err := r.Create("gone", BuildSpec{Path: filepath.Join(t.TempDir(), "missing.h2")}); err != nil {
		t.Fatalf("Create must accept a spec with a missing file: %v", err)
	}
	if err := r.WaitReady(waitCtx(t), "gone"); !errors.Is(err, ErrNotReady) {
		t.Fatalf("WaitReady: %v, want ErrNotReady", err)
	}
	if inf, _ := r.Get("gone"); inf.State != StateFailed || inf.Error == "" {
		t.Fatalf("info: %+v", inf)
	}
}

// TestCreateBusyAndQueueFull checks admission control: one outstanding build
// per name, and a bounded queue that fails fast when saturated.
func TestCreateBusyAndQueueFull(t *testing.T) {
	started := make(chan struct{}, 4)
	gate := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(gate) }) }
	defer release()
	r := New(Config{Workers: 1, QueueDepth: 1, Builder: func(ctx context.Context, sp BuildSpec, setStage func(string)) (*core.Matrix, error) {
		started <- struct{}{}
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return BuildWithCache(ctx, sp, setStage, nil)
	}})
	defer r.Close()

	if err := r.Create("a", tinySpec(1)); err != nil {
		t.Fatal(err)
	}
	if err := r.Create("a", tinySpec(1)); !errors.Is(err, ErrBusy) {
		t.Fatalf("second create of building name: %v, want ErrBusy", err)
	}
	<-started // the worker holds "a"; its queue slot is free again
	// Worker is stalled on "a"; one more job fits the queue, the next must
	// fail fast.
	if err := r.Create("b", tinySpec(2)); err != nil {
		t.Fatal(err)
	}
	if err := r.Create("c", tinySpec(3)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("create at queue limit: %v, want ErrQueueFull", err)
	}
	release()
	for _, name := range []string{"a", "b"} {
		if err := r.WaitReady(waitCtx(t), name); err != nil {
			t.Fatal(err)
		}
	}
	// "c" was never admitted.
	if _, ok := r.Get("c"); ok {
		t.Fatal("rejected create left an instance")
	}
}

// TestHotSwapZeroDowntime rebuilds a serving name under a client loop:
// no apply may fail, and every result must match either the old or the new
// version's reference product — never a torn mix.
func TestHotSwapZeroDowntime(t *testing.T) {
	r := New(Config{Workers: 2})
	defer r.Close()
	specOld := tinySpec(11)
	specNew := tinySpec(11)
	specNew.Kernel = "gaussian" // same points, observably different operator

	if err := r.Create("hot", specOld); err != nil {
		t.Fatal(err)
	}
	if err := r.WaitReady(waitCtx(t), "hot"); err != nil {
		t.Fatal(err)
	}
	mOld, _ := r.Matrix("hot")
	b := randVec(mOld.N, 21)
	refOld := mOld.Apply(b)
	// The new version's reference, built independently of the registry:
	// core.Build is deterministic for a given spec.
	mRef, err := BuildWithCache(context.Background(), specNew.withDefaults(), func(string) {}, nil)
	if err != nil {
		t.Fatal(err)
	}
	refNew := mRef.Apply(b)
	if maxRelDiff(refOld, refNew) < 1e-6 {
		t.Fatal("test is vacuous: old and new references are indistinguishable")
	}

	stop := make(chan struct{})
	var nOld, nNew atomic.Int64
	fail := make(chan string, 1)
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				y, err := r.Apply(waitCtx(t), "hot", b)
				if err != nil {
					select {
					case fail <- fmt.Sprintf("apply failed during hot swap: %v", err):
					default:
					}
					return
				}
				dOld, dNew := maxRelDiff(refOld, y), maxRelDiff(refNew, y)
				switch {
				case dOld < 1e-10:
					nOld.Add(1)
				case dNew < 1e-10:
					nNew.Add(1)
				default:
					select {
					case fail <- fmt.Sprintf("torn result: matches neither version (dOld=%g dNew=%g)", dOld, dNew):
					default:
					}
					return
				}
			}
		}()
	}

	// Wait for the clients to land at least one result on the old version,
	// then rebuild under load and keep them hammering until several
	// post-swap results have been observed.
	deadline := time.Now().Add(60 * time.Second)
	for nOld.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("clients never reached the old version")
		}
		time.Sleep(time.Millisecond)
	}
	if err := r.Create("hot", specNew); err != nil {
		t.Fatal(err)
	}
	for nNew.Load() < 5 {
		select {
		case msg := <-fail:
			close(stop)
			wg.Wait()
			t.Fatal(msg)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("swap never observed by clients: %d old, %d new", nOld.Load(), nNew.Load())
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	select {
	case msg := <-fail:
		t.Fatal(msg)
	default:
	}
	inf, _ := r.Get("hot")
	if inf.State != StateReady || inf.Kernel != "gaussian" {
		t.Fatalf("post-swap info: %+v", inf)
	}
	if st := r.Stats(); st.SwapDrains != 1 {
		t.Fatalf("swap drains = %d, want 1", st.SwapDrains)
	}
}

// TestFailedSwapKeepsServing checks a failed rebuild of a Ready name leaves
// the old version serving with the error recorded.
func TestFailedSwapKeepsServing(t *testing.T) {
	r := New(Config{Builder: func(ctx context.Context, sp BuildSpec, setStage func(string)) (*core.Matrix, error) {
		if sp.Path == "panic://swap" {
			panic("swap exploded")
		}
		return BuildWithCache(ctx, sp, setStage, nil)
	}})
	defer r.Close()
	if err := r.Create("keep", tinySpec(31)); err != nil {
		t.Fatal(err)
	}
	if err := r.WaitReady(waitCtx(t), "keep"); err != nil {
		t.Fatal(err)
	}
	m, _ := r.Matrix("keep")
	b := randVec(m.N, 32)

	if err := r.Create("keep", BuildSpec{Path: "panic://swap"}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		inf, _ := r.Get("keep")
		if !inf.Rebuilding && inf.Error != "" {
			if inf.State != StateReady {
				t.Fatalf("failed swap must keep serving, state %v", inf.State)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("swap failure never recorded")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := r.Apply(waitCtx(t), "keep", b); err != nil {
		t.Fatalf("apply after failed swap: %v", err)
	}
}

// TestEvictionLRUAndBudget fills the registry past its budget and checks the
// least-recently-applied instance is evicted, the budget holds afterwards,
// and a spilled instance rehydrates transparently on its next Apply.
func TestEvictionLRUAndBudget(t *testing.T) {
	// Budget admits either instance alone but not both (footprints differ
	// slightly by seed, so probe both).
	var memFirst, memSecond int64
	for i, seed := range []int64{41, 43} {
		probe, err := BuildWithCache(context.Background(), tinySpec(seed).withDefaults(), func(string) {}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			memFirst = probe.Memory().Total()
		} else {
			memSecond = probe.Memory().Total()
		}
	}
	budget := memFirst + memSecond - 1

	dir := t.TempDir()
	r := New(Config{Workers: 1, MemBudget: budget, SpillDir: dir})
	defer r.Close()

	if err := r.Create("first", tinySpec(41)); err != nil {
		t.Fatal(err)
	}
	if err := r.WaitReady(waitCtx(t), "first"); err != nil {
		t.Fatal(err)
	}
	mFirst, _ := r.Matrix("first")
	b := randVec(mFirst.N, 42)
	refFirst := mFirst.Apply(b)
	if _, err := r.Apply(waitCtx(t), "first", b); err != nil {
		t.Fatal(err)
	}

	if err := r.Create("second", tinySpec(43)); err != nil {
		t.Fatal(err)
	}
	if err := r.WaitReady(waitCtx(t), "second"); err != nil {
		t.Fatal(err)
	}

	// Eviction runs right after the build completes; poll it in.
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := r.Stats()
		if st.Evictions >= 1 && st.MemBytes <= budget {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("budget never enforced: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	infFirst, _ := r.Get("first")
	infSecond, _ := r.Get("second")
	if infFirst.State != StateEvicted || !infFirst.Spilled {
		t.Fatalf("LRU victim: %+v", infFirst)
	}
	if infSecond.State != StateReady {
		t.Fatalf("newest instance evicted instead: %+v", infSecond)
	}
	if fis, err := os.ReadDir(dir); err != nil || len(fis) != 1 {
		t.Fatalf("spill dir: %v %v", fis, err)
	}

	// Lazy rehydration: the next Apply on the victim reloads it from spill
	// and answers with the exact same operator.
	y, err := r.Apply(waitCtx(t), "first", b)
	if err != nil {
		t.Fatalf("apply on spilled instance: %v", err)
	}
	if d := maxRelDiff(refFirst, y); d > 1e-12 {
		t.Fatalf("rehydrated result diverges: %g", d)
	}
	if st := r.Stats(); st.Rehydrations != 1 {
		t.Fatalf("rehydrations = %d, want 1", st.Rehydrations)
	}
	// Rehydrating "first" pushed the total back over budget: "second" is now
	// the LRU victim.
	deadline = time.Now().Add(30 * time.Second)
	for {
		inf, _ := r.Get("second")
		if inf.State == StateEvicted {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("second never evicted after rehydration")
		}
		time.Sleep(time.Millisecond)
	}
	if st := r.Stats(); st.MemBytes > budget {
		t.Fatalf("budget exceeded after rehydration: %+v", st)
	}
}

// TestEvictionWithoutSpillRequiresRecreate covers the spill-less
// configuration: eviction frees the instance and Apply reports it.
func TestEvictionWithoutSpillRequiresRecreate(t *testing.T) {
	// Budget admits either instance alone but not both: different seeds give
	// slightly different footprints, so size it from both probes.
	var mems [2]int64
	for i := range mems {
		probe, err := BuildWithCache(context.Background(), tinySpec(51+int64(i)).withDefaults(), func(string) {}, nil)
		if err != nil {
			t.Fatal(err)
		}
		mems[i] = probe.Memory().Total()
	}
	r := New(Config{Workers: 1, MemBudget: mems[0] + mems[1] - 1})
	defer r.Close()
	for i, name := range []string{"a", "b"} {
		if err := r.Create(name, tinySpec(51+int64(i))); err != nil {
			t.Fatal(err)
		}
		if err := r.WaitReady(waitCtx(t), name); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if inf, _ := r.Get("a"); inf.State == StateEvicted {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("eviction never happened")
		}
		time.Sleep(time.Millisecond)
	}
	b := randVec(tinySpec(51).N, 52)
	if _, err := r.Apply(waitCtx(t), "a", b); !errors.Is(err, ErrNotReady) {
		t.Fatalf("apply on evicted (no spill): %v, want ErrNotReady", err)
	}
	// Re-creating the evicted name brings it back.
	if err := r.Create("a", tinySpec(51)); err != nil {
		t.Fatal(err)
	}
	if err := r.WaitReady(waitCtx(t), "a"); err != nil {
		t.Fatal(err)
	}
}

// TestDeleteCancelsInFlightBuild deletes a name whose build is running; the
// result must be discarded and the name reusable immediately.
func TestDeleteCancelsInFlightBuild(t *testing.T) {
	started := make(chan struct{}, 8)
	gate := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(gate) }) }
	defer release()
	r := New(Config{Workers: 1, Builder: func(ctx context.Context, sp BuildSpec, setStage func(string)) (*core.Matrix, error) {
		started <- struct{}{}
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return BuildWithCache(ctx, sp, setStage, nil)
	}})
	defer r.Close()

	if err := r.Create("doomed", tinySpec(61)); err != nil {
		t.Fatal(err)
	}
	<-started // build is in flight
	if err := r.Delete("doomed"); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Get("doomed"); ok {
		t.Fatal("deleted name still listed")
	}
	// The name is immediately reusable; the cancelled build's result (it
	// unblocks via ctx) must not resurrect or clobber the new instance.
	if err := r.Create("doomed", tinySpec(62)); err != nil {
		t.Fatal(err)
	}
	release()
	if err := r.WaitReady(waitCtx(t), "doomed"); err != nil {
		t.Fatal(err)
	}
	if inf, _ := r.Get("doomed"); inf.Spec.Seed != 62 {
		t.Fatalf("stale build won: %+v", inf.Spec)
	}
}

// TestCloseDrainsAndPersists shuts down a registry with traffic in flight:
// admitted applies drain, queued builds are cancelled without leaking, and
// Ready instances are persisted to the spill dir.
func TestCloseDrainsAndPersists(t *testing.T) {
	dir := t.TempDir()
	r := New(Config{Workers: 1, SpillDir: dir})
	if err := r.Create("live", tinySpec(71)); err != nil {
		t.Fatal(err)
	}
	if err := r.WaitReady(waitCtx(t), "live"); err != nil {
		t.Fatal(err)
	}
	m, _ := r.Matrix("live")
	b := randVec(m.N, 72)
	ref := m.Apply(b)

	// A slow second build occupies the worker so a third stays queued.
	if err := r.Create("queued", tinySpec(73)); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	applyErrs := make([]error, 8)
	applyYs := make([][]float64, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			applyYs[i], applyErrs[i] = r.Apply(context.Background(), "live", b)
		}(i)
	}
	time.Sleep(5 * time.Millisecond)
	r.Close()
	wg.Wait()

	for i, err := range applyErrs {
		if err == nil {
			if d := maxRelDiff(ref, applyYs[i]); d > 1e-12 {
				t.Fatalf("drained apply diverges: %g", d)
			}
		} else if !errors.Is(err, serve.ErrClosed) && !errors.Is(err, ErrClosed) && !errors.Is(err, ErrNotFound) {
			t.Fatalf("apply during shutdown: %v", err)
		}
	}

	// Persistence: the Ready instance was spilled at shutdown.
	spill := filepath.Join(dir, "live.h2spill")
	f, err := os.Open(spill)
	if err != nil {
		t.Fatalf("shutdown did not persist the ready instance: %v", err)
	}
	m2, err := core.ReadAny(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if d := maxRelDiff(ref, m2.Apply(b)); d > 1e-12 {
		t.Fatalf("persisted matrix diverges: %g", d)
	}

	// Everything is rejected after Close; Close stays idempotent.
	if err := r.Create("x", tinySpec(74)); !errors.Is(err, ErrClosed) {
		t.Fatalf("create after close: %v", err)
	}
	if _, err := r.Apply(context.Background(), "live", b); err == nil {
		t.Fatal("apply accepted after close")
	}
	r.Close()
}
