package registry

import (
	"context"
	"os"
	"testing"

	"h2ds/internal/core"
)

// TestCloseRaceBuildCompletesDuringShutdown pins the Close-vs-build race:
// a build whose result arrives after Close has cancelled it must land
// Evicted-with-spill (the matrix persisted for the next process), never as a
// leaked Ready batcher behind a closed registry. The stall is deterministic:
// the builder parks on its job context, which is cancelled by exactly one
// event — Close — so the build always completes strictly inside the shutdown
// window.
func TestCloseRaceBuildCompletesDuringShutdown(t *testing.T) {
	dir := t.TempDir()

	// The matrix the stalled build will "finish" with, built up front so the
	// builder body does no real work while parked.
	m, err := BuildWithCache(context.Background(), tinySpec(7).withDefaults(), func(string) {}, nil)
	if err != nil {
		t.Fatal(err)
	}

	started := make(chan struct{})
	r := New(Config{
		Workers:  1,
		SpillDir: dir,
		Builder: func(ctx context.Context, sp BuildSpec, setStage func(string)) (*core.Matrix, error) {
			setStage("stalled")
			close(started)
			<-ctx.Done() // released only by Close's cancellation
			return m, nil
		},
	})
	if err := r.Create("racer", tinySpec(7)); err != nil {
		t.Fatal(err)
	}
	<-started // the worker is inside the build; Close will race its completion
	r.Close()

	inf, ok := r.Get("racer")
	if !ok {
		t.Fatal("instance vanished at close")
	}
	if inf.State != StateClosed {
		t.Fatalf("state after Close = %v, want closed", inf.State)
	}
	if !inf.Spilled {
		t.Fatalf("build completing during shutdown was not spilled: %+v", inf)
	}
	st := r.Stats()
	if st.ShutdownSpills != 1 {
		t.Fatalf("ShutdownSpills = %d, want 1", st.ShutdownSpills)
	}
	if st.Ready != 0 || st.States["ready"] != 0 {
		t.Fatalf("leaked Ready instance past Close: %+v", st)
	}

	// The spill is a complete, loadable stream: a successor process can adopt
	// it via BuildSpec.Path and serve bitwise-identical products.
	path := dir + "/racer.h2spill"
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("spill file missing: %v", err)
	}
	r2 := New(Config{Workers: 1})
	defer r2.Close()
	if err := r2.Create("revived", BuildSpec{Path: path}); err != nil {
		t.Fatal(err)
	}
	b := randVec(m.N, 8)
	got, err := r2.Apply(waitCtx(t), "revived", b)
	if err != nil {
		t.Fatal(err)
	}
	want := m.Apply(b)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("revived spill differs at %d: %g vs %g", i, got[i], want[i])
		}
	}
}

// TestCloseRaceWithoutSpillDirFailsClean is the counter-case: with no spill
// dir there is nowhere to persist the racing build, so it must settle as a
// plain cancellation — no Ready leak, no spill, no panic.
func TestCloseRaceWithoutSpillDirFailsClean(t *testing.T) {
	m, err := BuildWithCache(context.Background(), tinySpec(9).withDefaults(), func(string) {}, nil)
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	r := New(Config{
		Workers: 1,
		Builder: func(ctx context.Context, sp BuildSpec, setStage func(string)) (*core.Matrix, error) {
			close(started)
			<-ctx.Done()
			return m, nil
		},
	})
	if err := r.Create("racer", tinySpec(9)); err != nil {
		t.Fatal(err)
	}
	<-started
	r.Close()

	inf, ok := r.Get("racer")
	if !ok || inf.State != StateClosed {
		t.Fatalf("state after Close = %+v, want closed", inf)
	}
	if inf.Spilled {
		t.Fatal("spill recorded with no spill dir configured")
	}
	st := r.Stats()
	if st.Ready != 0 || st.ShutdownSpills != 0 {
		t.Fatalf("unexpected stats after spill-less close race: %+v", st)
	}
}
