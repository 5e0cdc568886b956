package core

import (
	"testing"

	"h2ds/internal/kernel"
	"h2ds/internal/pointset"
)

// TestShardPlanPartitionsTree checks the structural invariants every
// participant relies on: the shard node sets plus the coordinator set
// partition the tree, shard roots cover all points exactly once, and the
// same parameters derive the same plan twice.
func TestShardPlanPartitionsTree(t *testing.T) {
	pts := pointset.Cube(2000, 3, 90)
	m, err := Build(pts, kernel.Coulomb{}, Config{Kind: DataDriven, Mode: Normal, Tol: 1e-5, LeafSize: 60})
	if err != nil {
		t.Fatal(err)
	}
	for _, nshards := range []int{1, 2, 3, 5} {
		p, err := m.PlanShards(nshards, 0)
		if err != nil {
			t.Fatal(err)
		}
		if p.NShards != len(p.Nodes) || p.NShards != len(p.Roots) {
			t.Fatalf("nshards=%d: inconsistent plan sizes %d/%d/%d", nshards, p.NShards, len(p.Nodes), len(p.Roots))
		}
		seen := make([]int, len(m.Tree.Nodes))
		for _, nodes := range p.Nodes {
			for _, id := range nodes {
				seen[id]++
			}
		}
		for _, id := range p.Coord {
			seen[id]++
		}
		for id, c := range seen {
			if c != 1 {
				t.Fatalf("nshards=%d: node %d covered %d times", nshards, id, c)
			}
		}
		points := 0
		for _, roots := range p.Roots {
			for _, id := range roots {
				points += m.Tree.Nodes[id].Size()
			}
		}
		if points != m.N {
			t.Fatalf("nshards=%d: roots own %d points want %d", nshards, points, m.N)
		}
		q, err := m.PlanShards(nshards, 0)
		if err != nil {
			t.Fatal(err)
		}
		for s := range p.Nodes {
			if len(q.Nodes[s]) != len(p.Nodes[s]) {
				t.Fatalf("nshards=%d: non-deterministic plan", nshards)
			}
			for i := range p.Nodes[s] {
				if q.Nodes[s][i] != p.Nodes[s][i] {
					t.Fatalf("nshards=%d: non-deterministic plan", nshards)
				}
			}
		}
	}
}

// TestShardedApplyBitwiseEqual is the distributed-correctness cornerstone:
// scatter/gather through ApplyShard + ApplyGather must reproduce the
// single-node product BITWISE for symmetric and unsymmetric kernels, in
// plain and transpose form, at several shard counts and at worker counts 1
// (serial drain), 2 and 3 (odd) — including the coordinator's
// local-recompute fallback for a missing shard in both directions.
func TestShardedApplyBitwiseEqual(t *testing.T) {
	pts := pointset.Cube(1800, 3, 91)
	n := pts.Len()
	b := randVec(n, 92)
	kerns := []kernel.Pairwise{kernel.Coulomb{}, drift3()}
	for _, k := range kerns {
		for _, mode := range []MemoryMode{Normal, OnTheFly} {
			m, err := Build(pts, k, Config{Kind: DataDriven, Mode: mode, Tol: 1e-6, LeafSize: 50, Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 3} {
				m.Cfg.Workers = workers
				want := m.Apply(b)
				wantT := m.ApplyTranspose(b)

				for _, nshards := range []int{1, 2, 4} {
					p, err := m.PlanShards(nshards, 0)
					if err != nil {
						t.Fatal(err)
					}
					parts := make([][]float64, p.NShards)
					partsT := make([][]float64, p.NShards)
					for s := 0; s < p.NShards; s++ {
						if parts[s], err = m.ApplyShard(p, s, b, false); err != nil {
							t.Fatal(err)
						}
						if partsT[s], err = m.ApplyShard(p, s, b, true); err != nil {
							t.Fatal(err)
						}
					}
					got, err := m.ApplyGather(p, b, parts, false)
					if err != nil {
						t.Fatal(err)
					}
					gotT, err := m.ApplyGather(p, b, partsT, true)
					if err != nil {
						t.Fatal(err)
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("%s/%v w=%d nshards=%d: apply differs at %d: %g != %g", k.Name(), mode, workers, nshards, i, got[i], want[i])
						}
						if gotT[i] != wantT[i] {
							t.Fatalf("%s/%v w=%d nshards=%d: transpose differs at %d: %g != %g", k.Name(), mode, workers, nshards, i, gotT[i], wantT[i])
						}
					}

					// Shard-failure fallback: dropping one partial must still be
					// bitwise-exact (the coordinator recomputes it locally).
					if p.NShards > 1 {
						parts[0], partsT[p.NShards-1] = nil, nil
						got, err = m.ApplyGather(p, b, parts, false)
						if err != nil {
							t.Fatal(err)
						}
						gotT, err = m.ApplyGather(p, b, partsT, true)
						if err != nil {
							t.Fatal(err)
						}
						for i := range want {
							if got[i] != want[i] {
								t.Fatalf("%s/%v w=%d nshards=%d: fallback apply differs at %d", k.Name(), mode, workers, nshards, i)
							}
							if gotT[i] != wantT[i] {
								t.Fatalf("%s/%v w=%d nshards=%d: fallback transpose differs at %d", k.Name(), mode, workers, nshards, i)
							}
						}
					}
				}
			}
		}
	}
}

// TestShardPartialValidation checks the defensive paths: bad shard index,
// wrong input length, wrong partial length.
func TestShardPartialValidation(t *testing.T) {
	pts := pointset.Cube(900, 3, 94)
	m, err := Build(pts, kernel.Coulomb{}, Config{Kind: DataDriven, Mode: Normal, Tol: 1e-5, LeafSize: 50})
	if err != nil {
		t.Fatal(err)
	}
	p, err := m.PlanShards(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	b := randVec(m.N, 95)
	if _, err := m.ApplyShard(p, p.NShards, b, false); err == nil {
		t.Fatal("out-of-range shard index accepted")
	}
	if _, err := m.ApplyShard(p, 0, b[:10], false); err == nil {
		t.Fatal("short input accepted")
	}
	parts := make([][]float64, p.NShards)
	parts[0] = make([]float64, 1)
	if _, err := m.ApplyGather(p, b, parts, false); err == nil {
		t.Fatal("wrong partial length accepted")
	}
	if _, err := m.ApplyGather(p, b, parts[:1], false); err == nil {
		t.Fatal("wrong partial count accepted")
	}

	// A bad partial must be rejected before any sweep work: no on-the-fly
	// evaluation may run (and be credited to the next apply's stats) for
	// the nil partial's recompute or the coordinator couplings.
	otf, err := Build(pts, kernel.Coulomb{}, Config{Kind: DataDriven, Mode: OnTheFly, Tol: 1e-5, LeafSize: 50, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	po, err := otf.PlanShards(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if po.NShards < 2 {
		t.Fatalf("plan has %d shards, want >= 2", po.NShards)
	}
	last := po.NShards - 1
	bad := make([][]float64, po.NShards)
	for s := 1; s < last; s++ {
		if bad[s], err = otf.ApplyShard(po, s, b, false); err != nil {
			t.Fatal(err)
		}
	}
	bad[last] = make([]float64, otf.PartialLen(po.Nodes[last], false)+1)
	ws := otf.NewWorkspace()
	defer ws.Close()
	y := make([]float64, otf.N)
	for _, transpose := range []bool{false, true} {
		if err := otf.applyGatherWith(ws, y, b, po, bad, transpose); err == nil {
			t.Fatalf("transpose=%v: wrong-length partial accepted by gather", transpose)
		}
	}
	for i, c := range ws.ctr {
		if c != 0 {
			t.Fatalf("rejected gather left per-worker counter %d = %d", i, c)
		}
	}
}

// TestTreeCutInvariants validates the subtree-cut helper directly: every
// point is owned by exactly one cut node at every level.
func TestTreeCutInvariants(t *testing.T) {
	pts := pointset.Cube(1200, 3, 96)
	m, err := Build(pts, kernel.Coulomb{}, Config{Kind: DataDriven, Mode: Normal, Tol: 1e-4, LeafSize: 40})
	if err != nil {
		t.Fatal(err)
	}
	for l := 0; l < m.Tree.Depth(); l++ {
		cut := m.Tree.Cut(l)
		covered := 0
		prevEnd := 0
		for _, id := range cut {
			nd := &m.Tree.Nodes[id]
			if nd.Start != prevEnd {
				t.Fatalf("level %d: cut not contiguous at node %d (start %d, want %d)", l, id, nd.Start, prevEnd)
			}
			prevEnd = nd.End
			covered += nd.Size()
		}
		if covered != m.N {
			t.Fatalf("level %d: cut covers %d points want %d", l, covered, m.N)
		}
	}
}
