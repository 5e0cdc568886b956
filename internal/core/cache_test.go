package core

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"h2ds/internal/kernel"
	"h2ds/internal/pointset"
)

func TestBuildCacheSharesAcrossKernels(t *testing.T) {
	// Paper §VI-A: the hierarchical sampling depends only on the points, so
	// one sweep can be amortized across kernels. A build that hits a shared
	// cache must skip sampling, share the tree, and produce the same bits as
	// a fresh build.
	pts := pointset.Cube(2000, 3, 40)
	b := randVec(2000, 41)
	cfg := Config{Kind: DataDriven, Mode: OnTheFly, Tol: 1e-6, LeafSize: 80}
	shared := cfg
	shared.Cache = NewBuildCache(1)
	first, err := Build(pts, kernel.Coulomb{}, shared)
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats().Phases.CacheHit || first.hier == nil {
		t.Fatal("the first build must miss and keep its hierarchy")
	}
	for _, k := range []kernel.Kernel{kernel.Exponential{}, kernel.Gaussian{Scale: 0.1}} {
		fresh, err := Build(pts, k, cfg)
		if err != nil {
			t.Fatal(err)
		}
		hit, err := Build(pts, k, shared)
		if err != nil {
			t.Fatal(err)
		}
		if ph := hit.Stats().Phases; !ph.CacheHit || ph.SampleNS != 0 {
			t.Fatalf("%s: want a cache hit with no sampling, got hit=%v sample=%dns", k.Name(), ph.CacheHit, ph.SampleNS)
		}
		if hit.Tree != first.Tree || hit.hier != first.hier {
			t.Fatalf("%s: a hit must share the cached tree and hierarchy", k.Name())
		}
		bitsEqualVec(t, k.Name(), hit.Apply(b), fresh.Apply(b))
	}
	hits, misses, _ := shared.Cache.Stats()
	ip, err := Build(pts, kernel.Coulomb{}, Config{Kind: Interpolation, Tol: 1e-3, LeafSize: 80, Cache: shared.Cache})
	if err != nil {
		t.Fatal(err)
	}
	if ip.hier != nil || ip.Stats().Phases.CacheHit {
		t.Fatal("an interpolation build must neither sample nor hit the cache")
	}
	if h, m, _ := shared.Cache.Stats(); h != hits || m != misses {
		t.Fatalf("an interpolation build consulted the cache: hits %d->%d, misses %d->%d", hits, h, misses, m)
	}
}

func TestBuildCacheMissOnOtherGeometry(t *testing.T) {
	// The cache keys on n, dim and every coordinate, so another point count,
	// dimension or seed misses and builds its own tree.
	c := NewBuildCache(4)
	a, err := Build(pointset.Cube(500, 3, 42), kernel.Coulomb{}, Config{LeafSize: 60, Cache: c})
	if err != nil {
		t.Fatal(err)
	}
	for _, pts := range []*pointset.Points{
		pointset.Cube(600, 3, 43), pointset.Cube(500, 2, 44), pointset.Cube(500, 3, 45),
	} {
		m, err := Build(pts, kernel.Coulomb{}, Config{LeafSize: 60, Cache: c})
		if err != nil {
			t.Fatal(err)
		}
		if m.Stats().Phases.CacheHit || m.Tree == a.Tree || m.hier == a.hier {
			t.Fatalf("n=%d dim=%d: another geometry must miss the cache", pts.Len(), pts.Dim)
		}
		if m.Tree.Points.Len() != pts.Len() || m.Tree.Points.Dim != pts.Dim {
			t.Fatalf("n=%d dim=%d: tree over %dx%d points", pts.Len(), pts.Dim, m.Tree.Points.Len(), m.Tree.Points.Dim)
		}
	}
	if hits, misses, _ := c.Stats(); hits != 0 || misses != 4 {
		t.Fatalf("cache stats: %d hits, %d misses; want 0 and 4", hits, misses)
	}
}

// TestConstructionLeavesNoGoroutines pins that Build, ReadAny and
// WithStorageBudget each close the worker pool they open: once a call
// returns, the goroutine count falls back to its value before the call.
func TestConstructionLeavesNoGoroutines(t *testing.T) {
	pts := pointset.Cube(2000, 3, 46)
	settled := func(name string, before int) {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				t.Fatalf("%s left goroutines behind: %d before, %d after", name, before, runtime.NumGoroutine())
			}
			time.Sleep(time.Millisecond)
		}
	}

	before := runtime.NumGoroutine()
	m, err := Build(pts, kernel.Coulomb{}, Config{LeafSize: 60, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	settled("Build", before)

	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	before = runtime.NumGoroutine()
	if _, err := ReadAny(&buf); err != nil {
		t.Fatal(err)
	}
	settled("ReadAny", before)

	before = runtime.NumGoroutine()
	m.WithStorageBudget(m.storedBytesForTest() / 2)
	settled("WithStorageBudget", before)
}
