package sample

import (
	"math"
	"reflect"
	"testing"

	"h2ds/internal/kernel"
	"h2ds/internal/mat"
	"h2ds/internal/par"
	"h2ds/internal/pointset"
	"h2ds/internal/tree"
)

func allIdx(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

func allSamplers() []Sampler {
	return []Sampler{AnchorNet{}, FarthestPoint{}, Random{Seed: 1}}
}

func checkSubsetNoDup(t *testing.T, name string, cand, got []int, m int) {
	t.Helper()
	inCand := make(map[int]bool, len(cand))
	for _, c := range cand {
		inCand[c] = true
	}
	seen := make(map[int]bool, len(got))
	for _, g := range got {
		if !inCand[g] {
			t.Fatalf("%s: selected %d not in candidates", name, g)
		}
		if seen[g] {
			t.Fatalf("%s: duplicate selection %d", name, g)
		}
		seen[g] = true
	}
	if len(got) > m {
		t.Fatalf("%s: %d selections exceed budget %d", name, len(got), m)
	}
}

func TestSamplersBasicContract(t *testing.T) {
	pts := pointset.Cube(200, 3, 1)
	cand := allIdx(200)
	for _, s := range allSamplers() {
		got := s.Sample(pts, cand, 20)
		checkSubsetNoDup(t, s.Name(), cand, got, 20)
		if len(got) < 15 {
			t.Fatalf("%s: only %d of 20 requested samples from 200 spread candidates", s.Name(), len(got))
		}
	}
}

func TestSamplersSmallCandidateSetPassthrough(t *testing.T) {
	pts := pointset.Cube(10, 2, 2)
	cand := []int{3, 7, 9}
	for _, s := range allSamplers() {
		got := s.Sample(pts, cand, 5)
		if len(got) != 3 {
			t.Fatalf("%s: want passthrough of 3 candidates, got %d", s.Name(), len(got))
		}
		checkSubsetNoDup(t, s.Name(), cand, got, 5)
	}
}

func TestSamplersDeterministic(t *testing.T) {
	pts := pointset.Sphere(300, 3)
	cand := allIdx(300)
	for _, s := range allSamplers() {
		a := s.Sample(pts, cand, 25)
		b := s.Sample(pts, cand, 25)
		if len(a) != len(b) {
			t.Fatalf("%s: nondeterministic length", s.Name())
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: nondeterministic selection", s.Name())
			}
		}
	}
}

func TestSamplersCoverage(t *testing.T) {
	// Geometric samplers must spread over the box: with candidates split
	// between two distant clusters, both clusters must be represented.
	pts := pointset.New(0, 2)
	for i := 0; i < 50; i++ {
		pts.Append([]float64{float64(i%7) * 0.01, float64(i%5) * 0.01})
	}
	for i := 0; i < 50; i++ {
		pts.Append([]float64{10 + float64(i%7)*0.01, 10 + float64(i%5)*0.01})
	}
	for _, s := range []Sampler{AnchorNet{}, FarthestPoint{}} {
		got := s.Sample(pts, allIdx(100), 10)
		lo, hi := 0, 0
		for _, g := range got {
			if g < 50 {
				lo++
			} else {
				hi++
			}
		}
		if lo == 0 || hi == 0 {
			t.Fatalf("%s: failed to cover both clusters (lo=%d hi=%d)", s.Name(), lo, hi)
		}
	}
}

func TestAnchorNetDuplicatePointsBounded(t *testing.T) {
	// Identical candidates: the sampler must terminate and return one point.
	pts := pointset.New(0, 2)
	for i := 0; i < 40; i++ {
		pts.Append([]float64{1, 1})
	}
	got := AnchorNet{}.Sample(pts, allIdx(40), 8)
	if len(got) != 1 {
		t.Fatalf("identical candidates should collapse to 1 sample, got %d", len(got))
	}
	gotF := FarthestPoint{}.Sample(pts, allIdx(40), 8)
	if len(gotF) != 1 {
		t.Fatalf("fps on identical candidates: got %d", len(gotF))
	}
}

func TestNamed(t *testing.T) {
	for _, n := range []string{"anchornet", "fps", "random"} {
		s, ok := Named(n)
		if !ok || s.Name() != n {
			t.Fatalf("Named(%q)", n)
		}
	}
	if _, ok := Named("bogus"); ok {
		t.Fatal("unknown sampler accepted")
	}
}

func TestHierarchyStructure(t *testing.T) {
	pts := pointset.Cube(600, 3, 9)
	pool := par.NewPool(2)
	defer pool.Close()
	tr := tree.New(pts, tree.Config{LeafSize: 30}, pool)
	h := Run(tr, AnchorNet{}, 16, pool)
	if len(h.XStar) != len(tr.Nodes) || len(h.YStar) != len(tr.Nodes) {
		t.Fatal("hierarchy arrays sized wrong")
	}
	for id := range tr.Nodes {
		nd := &tr.Nodes[id]
		if len(h.XStar[id]) > 16 || len(h.YStar[id]) > 16 {
			t.Fatalf("node %d exceeds budget: |X*|=%d |Y*|=%d", id, len(h.XStar[id]), len(h.YStar[id]))
		}
		// X* must be points owned by the node.
		for _, p := range h.XStar[id] {
			if p < nd.Start || p >= nd.End {
				t.Fatalf("node %d X* point %d outside range [%d,%d)", id, p, nd.Start, nd.End)
			}
		}
		if nd.Size() > 0 && len(h.XStar[id]) == 0 {
			t.Fatalf("node %d has points but empty X*", id)
		}
		// Y* must be well-separated-ish: no Y* point may belong to the node
		// itself (farfield only).
		for _, p := range h.YStar[id] {
			if p >= nd.Start && p < nd.End {
				t.Fatalf("node %d Y* contains own point %d", id, p)
			}
		}
	}
	// Root has no farfield.
	if len(h.YStar[tr.Root()]) != 0 {
		t.Fatal("root Y* must be empty")
	}
	// Some node must have a non-empty Y*.
	any := false
	for id := range tr.Nodes {
		if len(h.YStar[id]) > 0 {
			any = true
			break
		}
	}
	if !any {
		t.Fatal("no node received farfield samples")
	}
	if h.Bytes() <= 0 {
		t.Fatal("Bytes must be positive")
	}
}

func TestHierarchyYStarInheritsAncestors(t *testing.T) {
	// A leaf's Y* candidate pool includes the parent's Y*; verify that some
	// leaf Y* point lies outside the union of its own interaction-list
	// nodes (i.e. it was inherited from an ancestor's farfield).
	pts := pointset.Cube(800, 3, 10)
	tr := tree.New(pts, tree.Config{LeafSize: 25}, nil)
	h := Run(tr, AnchorNet{}, 12, nil)
	inherited := false
	for _, leaf := range tr.Leaves {
		nd := &tr.Nodes[leaf]
		inIL := func(p int) bool {
			for _, j := range nd.Interaction {
				jn := &tr.Nodes[j]
				if p >= jn.Start && p < jn.End {
					return true
				}
			}
			return false
		}
		for _, p := range h.YStar[leaf] {
			if !inIL(p) {
				inherited = true
				break
			}
		}
		if inherited {
			break
		}
	}
	if !inherited {
		t.Fatal("no leaf inherited ancestor farfield samples; top-down sweep broken")
	}
}

// TestHierarchyWorkerIndependence: the serial (nil pool) and a 4-worker
// sweep select the same X* and Y* for every node.
func TestHierarchyWorkerIndependence(t *testing.T) {
	pts := pointset.Dino(500, 11)
	tr := tree.New(pts, tree.Config{LeafSize: 20}, nil)
	pool := par.NewPool(4)
	defer pool.Close()
	a := Run(tr, AnchorNet{}, 10, nil)
	b := Run(tr, AnchorNet{}, 10, pool)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("sample hierarchy depends on the worker pool")
	}
}

func TestHaltonProperties(t *testing.T) {
	// Halton values lie in [0,1) and early base-2 values hit known points.
	want := []float64{0.5, 0.25, 0.75, 0.125}
	for i, w := range want {
		if got := halton(i+1, 2); got != w {
			t.Fatalf("halton(%d,2)=%g want %g", i+1, got, w)
		}
	}
	for i := 1; i < 200; i++ {
		for _, b := range []int{2, 3, 5} {
			v := halton(i, b)
			if v < 0 || v >= 1 {
				t.Fatalf("halton(%d,%d)=%g out of [0,1)", i, b, v)
			}
		}
	}
}

// nystromRelError is the relative Frobenius error, over the given exact
// rows, of the global Nyström approximation K ≈ C W Cᵀ (paper §II-A2),
// C = K(X, S) and W = pinv(K(S, S) + ridge·I), on rank landmarks S picked
// by s — the non-hierarchical reference point for sampler quality.
func nystromRelError(pts *pointset.Points, k kernel.Pairwise, s Sampler, rank int, rows []int) float64 {
	all := allIdx(pts.Len())
	lm := s.Sample(pts, all, rank)
	c := kernel.NewBlock(k, pts, all, pts, lm)
	kss := kernel.NewBlock(k, pts, lm, pts, lm)
	ridge := 1e-12 * kss.MaxAbs()
	for i := range lm {
		kss.Set(i, i, kss.At(i, i)+ridge)
	}
	w := mat.NewSVD(kss).PInv(0)
	var num, den float64
	for _, i := range rows {
		approx := make([]float64, pts.Len())
		mat.MulVecAdd(approx, c, mat.MulVec(w.T(), c.Row(i)))
		for j, e := range kernel.NewBlock(k, pts, []int{i}, pts, all).Data {
			num += (e - approx[j]) * (e - approx[j])
			den += e * e
		}
	}
	return math.Sqrt(num / den)
}

func TestNystromSamplerComparison(t *testing.T) {
	// Sampler quality is workload dependent (geometric spread vs density
	// following); the contract here is that every included sampler yields
	// a usable global Nyström approximation on a non-uniform cloud at
	// equal rank.
	pts := pointset.Dino(800, 5)
	k := kernel.Gaussian{Scale: 1.0}
	rows := []int{0, 199, 400, 777}
	for _, s := range []Sampler{AnchorNet{}, FarthestPoint{}, Random{Seed: 9}} {
		e := nystromRelError(pts, k, s, 50, rows)
		t.Logf("%s: %.3e", s.Name(), e)
		if e > 1e-3 {
			t.Fatalf("%s: error %g too large at rank 50", s.Name(), e)
		}
	}
}
