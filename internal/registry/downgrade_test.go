package registry

import (
	"context"
	"testing"
	"time"

	"h2ds/internal/core"
)

// normalSpec is tinySpec with stored blocks, so the instance has storage to
// shed when the budget tightens.
func normalSpec(seed int64) BuildSpec {
	sp := tinySpec(seed)
	sp.Mem = "normal"
	return sp
}

// TestHybridSpecBuilds checks the "hybrid" memory mode flows through
// BuildSpec validation, BuildWithCache, and Info reporting.
func TestHybridSpecBuilds(t *testing.T) {
	r := New(Config{Workers: 1})
	defer r.Close()
	sp := tinySpec(61)
	sp.Mem = "hybrid"
	sp.StorageBudget = 64 << 10
	if err := r.Create("h", sp); err != nil {
		t.Fatal(err)
	}
	if err := r.WaitReady(waitCtx(t), "h"); err != nil {
		t.Fatal(err)
	}
	m, ok := r.Matrix("h")
	if !ok || m.Cfg.Mode != core.Hybrid || m.Cfg.StorageBudget != sp.StorageBudget {
		t.Fatalf("hybrid build config: ok=%v cfg=%+v", ok, m.Cfg)
	}
	inf, _ := r.Get("h")
	if inf.Mode != "hybrid" {
		t.Fatalf("Info.Mode = %q, want hybrid", inf.Mode)
	}
	b := randVec(m.N, 62)
	if _, err := r.Apply(waitCtx(t), "h", b); err != nil {
		t.Fatal(err)
	}
	if ss := m.SweepStats(); ss.HybridHits+ss.HybridMisses == 0 {
		t.Fatalf("hybrid apply recorded no hit/miss traffic: %+v", ss)
	}
	if sp.StorageBudget = -1; r.Create("bad", sp) == nil {
		t.Fatal("negative storage budget accepted")
	}
}

// TestBudgetDowngradesBeforeEvicting pins the new reclaim order: when the
// memory budget is exceeded, the LRU Normal-mode instance is downgraded to a
// smaller hybrid version — still Ready, still serving the same operator —
// rather than evicted or spilled.
func TestBudgetDowngradesBeforeEvicting(t *testing.T) {
	probe, err := BuildWithCache(context.Background(), normalSpec(71).withDefaults(), func(string) {}, nil)
	if err != nil {
		t.Fatal(err)
	}
	mem := probe.Memory()
	// Admit the first instance fully, but leave no room for the second's
	// stored blocks: the overage must be recovered from "first"'s storage.
	budget := probe.Memory().Total() + (mem.Total() - (mem.Coupling+mem.Nearfield)/2)

	r := New(Config{Workers: 1, MemBudget: budget})
	defer r.Close()
	for _, name := range []string{"first", "second"} {
		if err := r.Create(name, normalSpec(71)); err != nil {
			t.Fatal(err)
		}
		if err := r.WaitReady(waitCtx(t), name); err != nil {
			t.Fatal(err)
		}
		// Order the LRU: "first" is applied first, so it is the victim.
		m, _ := r.Matrix(name)
		if _, err := r.Apply(waitCtx(t), name, randVec(m.N, 72)); err != nil {
			t.Fatal(err)
		}
	}

	// The reclaim may take several downgrade passes (the hybrid scratch
	// accounting nudges the footprint), and mid-pass the victim is briefly
	// Evicted-with-unlinked-version; wait for the settled state.
	deadline := time.Now().Add(30 * time.Second)
	var inf Info
	for {
		st := r.Stats()
		inf, _ = r.Get("first")
		if st.Downgrades >= 1 && st.MemBytes <= budget && inf.State == StateReady {
			break
		}
		if st.Evictions > 0 {
			t.Fatalf("evicted instead of downgrading: %+v", st)
		}
		if time.Now().After(deadline) {
			t.Fatalf("budget never enforced via downgrade: stats %+v first %+v", st, inf)
		}
		time.Sleep(time.Millisecond)
	}
	if inf.Mode != "hybrid" {
		t.Fatalf("victim mode = %q, want hybrid", inf.Mode)
	}
	// The downgraded instance still answers with the same operator (shared
	// generators; stored-vs-fused blocks are bitwise-identical per value).
	mFirst, ok := r.Matrix("first")
	if !ok {
		t.Fatal("downgraded matrix unavailable")
	}
	b := randVec(mFirst.N, 73)
	want := probe.Apply(b)
	y, err := r.Apply(waitCtx(t), "first", b)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxRelDiff(want, y); d > 1e-12 {
		t.Fatalf("downgraded result diverges: %g", d)
	}
}
