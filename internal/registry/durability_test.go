package registry

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// evictWithSpill builds two instances under a budget that admits only one,
// so the first (LRU) instance is evicted with a spill file, and returns the
// registry and the victim's spill path.
func evictWithSpill(t *testing.T) (*Registry, string) {
	t.Helper()
	var mems [2]int64
	for i := range mems {
		probe, err := BuildWithCache(context.Background(), tinySpec(81+int64(i)).withDefaults(), func(string) {}, nil)
		if err != nil {
			t.Fatal(err)
		}
		mems[i] = probe.Memory().Total()
	}
	dir := t.TempDir()
	r := New(Config{Workers: 1, MemBudget: mems[0] + mems[1] - 1, SpillDir: dir})
	t.Cleanup(r.Close)

	for i, name := range []string{"victim", "survivor"} {
		if err := r.Create(name, tinySpec(81+int64(i))); err != nil {
			t.Fatal(err)
		}
		if err := r.WaitReady(waitCtx(t), name); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			// Touch the victim so its lastApply predates the survivor's build.
			if _, err := r.Apply(waitCtx(t), name, randVec(500, 82)); err != nil {
				t.Fatal(err)
			}
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if inf, ok := r.Get("victim"); ok && inf.State == StateEvicted && inf.Spilled {
			break
		}
		if time.Now().After(deadline) {
			inf, _ := r.Get("victim")
			t.Fatalf("victim never evicted with spill: %+v", inf)
		}
		time.Sleep(time.Millisecond)
	}
	return r, filepath.Join(r.cfg.SpillDir, "victim.h2spill")
}

// TestCorruptSpillRehydrationFails truncates an instance's spill file and
// checks the lazy rehydration path fails loudly — Apply errors, the instance
// lands in Failed with the load error recorded — instead of panicking or
// serving garbage.
func TestCorruptSpillRehydrationFails(t *testing.T) {
	r, spill := evictWithSpill(t)

	fi, err := os.Stat(spill)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(spill, fi.Size()/2); err != nil {
		t.Fatal(err)
	}

	if _, err := r.Apply(waitCtx(t), "victim", randVec(500, 83)); err == nil {
		t.Fatal("apply served from a truncated spill file")
	}
	inf, ok := r.Get("victim")
	if !ok || inf.State != StateFailed {
		t.Fatalf("corrupt rehydration state: %+v", inf)
	}
	if inf.Error == "" {
		t.Fatalf("failed rehydration recorded no error: %+v", inf)
	}

	// The instance is recoverable the usual way: redeclaring rebuilds it.
	if err := r.Create("victim", tinySpec(81)); err != nil {
		t.Fatal(err)
	}
	if err := r.WaitReady(waitCtx(t), "victim"); err != nil {
		t.Fatal(err)
	}
}

// TestSpillCleanupErrorCounter makes a spill file unremovable (by swapping
// it for a non-empty directory) and checks Delete logs-and-counts the
// cleanup failure instead of dropping it: Stats.SpillCleanupErrors is the
// operator's signal that the spill dir is leaking.
func TestSpillCleanupErrorCounter(t *testing.T) {
	r, spill := evictWithSpill(t)

	if err := os.Remove(spill); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(spill, "block"), 0o755); err != nil {
		t.Fatal(err)
	}

	if err := r.Delete("victim"); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.SpillCleanupErrors != 1 {
		t.Fatalf("spill_cleanup_errors = %d, want 1", st.SpillCleanupErrors)
	}

	// A clean delete does not move the counter: the survivor has no spill.
	if err := r.Delete("survivor"); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.SpillCleanupErrors != 1 {
		t.Fatalf("spill_cleanup_errors moved on clean delete: %d", st.SpillCleanupErrors)
	}
}

// TestSpecToleranceValidation checks Create rejects NaN and >= 1 tolerances
// synchronously with ErrInvalidSpec (so HTTP layers answer 400, not an
// asynchronous Failed build or a garbage matrix).
func TestSpecToleranceValidation(t *testing.T) {
	r := New(Config{Workers: 1})
	defer r.Close()
	bad := []BuildSpec{
		{N: 100, Tol: math.NaN()},
		{N: 100, Tol: -1e-6},
		{N: 100, Tol: 1},
		{N: 100, Tol: 2.5},
		{N: 100, RelTol: math.NaN()},
		{N: 100, RelTol: -1e-6},
		{N: 100, RelTol: 1},
	}
	for _, sp := range bad {
		if err := r.Create("x", sp); !errors.Is(err, ErrInvalidSpec) {
			t.Fatalf("spec %+v: %v, want ErrInvalidSpec", sp, err)
		}
	}
	if err := r.Create("bad name!", BuildSpec{N: 100}); !errors.Is(err, ErrInvalidSpec) {
		t.Fatalf("invalid name accepted: %v", err)
	}
	if err := r.Create("ok", BuildSpec{N: 100, RelTol: 1e-4}); err != nil {
		t.Fatalf("valid reltol spec rejected: %v", err)
	}
}

// TestRegistryRelTolBuild declares an error-controlled instance and checks
// the reltol metadata flows through to Info: requested tolerance, build-time
// error estimate within 10x of it, and the per-level rank summary.
func TestRegistryRelTolBuild(t *testing.T) {
	r := New(Config{Workers: 1})
	defer r.Close()
	sp := BuildSpec{Kernel: "coulomb", Dist: "cube", N: 800, Dim: 3,
		RelTol: 1e-4, Basis: "dd", Mem: "normal", Leaf: 50, Seed: 9}
	if err := r.Create("ec", sp); err != nil {
		t.Fatal(err)
	}
	if err := r.WaitReady(waitCtx(t), "ec"); err != nil {
		t.Fatal(err)
	}
	inf, ok := r.Get("ec")
	if !ok {
		t.Fatal("instance vanished")
	}
	if inf.RelTol != 1e-4 {
		t.Fatalf("info reltol = %g", inf.RelTol)
	}
	if inf.EstRelErr <= 0 || inf.EstRelErr > 10*inf.RelTol {
		t.Fatalf("info est_relerr = %g outside (0, %g]", inf.EstRelErr, 10*inf.RelTol)
	}
	if inf.MaxRank <= 0 || len(inf.LevelRanks) == 0 {
		t.Fatalf("rank summary missing: max %d, levels %+v", inf.MaxRank, inf.LevelRanks)
	}
}
