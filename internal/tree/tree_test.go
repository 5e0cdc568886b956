package tree

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"h2ds/internal/par"
	"h2ds/internal/pointset"
)

func buildSmall(t *testing.T, pts *pointset.Points, leaf int) *Tree {
	t.Helper()
	pool := par.NewPool(2)
	defer pool.Close()
	tr := New(pts, Config{LeafSize: leaf}, pool)
	if len(tr.Nodes) == 0 {
		t.Fatal("empty tree")
	}
	return tr
}

func TestPermIsPermutation(t *testing.T) {
	pts := pointset.Cube(137, 3, 1)
	tr := buildSmall(t, pts, 10)
	seen := make([]bool, 137)
	for _, p := range tr.Perm {
		if p < 0 || p >= 137 || seen[p] {
			t.Fatalf("bad perm entry %d", p)
		}
		seen[p] = true
	}
	for orig, k := range tr.InvPerm {
		if tr.Perm[k] != orig {
			t.Fatalf("InvPerm inconsistent at %d", orig)
		}
	}
	// Permuted coordinates match the original points.
	for k, orig := range tr.Perm {
		for j := 0; j < 3; j++ {
			if tr.Points.At(k)[j] != pts.At(orig)[j] {
				t.Fatalf("coordinates not permuted consistently at %d", k)
			}
		}
	}
}

func TestNodeRangesTile(t *testing.T) {
	tr := buildSmall(t, pointset.Cube(200, 2, 2), 16)
	root := tr.Nodes[0]
	if root.Start != 0 || root.End != 200 || root.Parent != -1 || root.Level != 0 {
		t.Fatalf("bad root %+v", root)
	}
	for i := range tr.Nodes {
		nd := &tr.Nodes[i]
		if nd.IsLeaf {
			if len(nd.Children) != 0 {
				t.Fatalf("leaf %d has children", i)
			}
			if nd.Size() > 16 || nd.Size() < 1 {
				t.Fatalf("leaf %d size %d", i, nd.Size())
			}
			continue
		}
		// Children exactly tile the parent range, in order.
		if len(nd.Children) != 2 {
			t.Fatalf("internal node %d has %d children", i, len(nd.Children))
		}
		c0, c1 := &tr.Nodes[nd.Children[0]], &tr.Nodes[nd.Children[1]]
		if c0.Start != nd.Start || c0.End != c1.Start || c1.End != nd.End {
			t.Fatalf("children of %d do not tile parent: [%d,%d) [%d,%d) vs [%d,%d)",
				i, c0.Start, c0.End, c1.Start, c1.End, nd.Start, nd.End)
		}
		if c0.Parent != i || c1.Parent != i || c0.Level != nd.Level+1 {
			t.Fatalf("child bookkeeping wrong for node %d", i)
		}
	}
}

func TestLevelsConsistent(t *testing.T) {
	tr := buildSmall(t, pointset.Sphere(300, 3), 20)
	count := 0
	for l, ids := range tr.Levels {
		for _, id := range ids {
			if tr.Nodes[id].Level != l {
				t.Fatalf("node %d in level list %d but has level %d", id, l, tr.Nodes[id].Level)
			}
			count++
		}
	}
	if count != len(tr.Nodes) {
		t.Fatalf("level lists cover %d of %d nodes", count, len(tr.Nodes))
	}
	if !sort.IntsAreSorted(tr.Leaves) {
		t.Fatal("leaf ids not ascending")
	}
}

func TestBBoxContainsOwnedPoints(t *testing.T) {
	tr := buildSmall(t, pointset.Dino(400, 4), 25)
	for i := range tr.Nodes {
		nd := &tr.Nodes[i]
		for k := nd.Start; k < nd.End; k++ {
			if !nd.Box.Contains(tr.Points.At(k)) {
				t.Fatalf("node %d box does not contain its point %d", i, k)
			}
		}
	}
}

func TestGeometricSplit(t *testing.T) {
	// After partitioning, the two children of each internal node must be
	// separated along the split axis: max coordinate of the left child must
	// not exceed min coordinate of the right child (median split).
	tr := buildSmall(t, pointset.Cube(500, 3, 9), 30)
	for i := range tr.Nodes {
		nd := &tr.Nodes[i]
		if nd.IsLeaf {
			continue
		}
		axis, _ := nd.Box.LongestAxis()
		c0, c1 := &tr.Nodes[nd.Children[0]], &tr.Nodes[nd.Children[1]]
		maxLeft := math.Inf(-1)
		for k := c0.Start; k < c0.End; k++ {
			if v := tr.Points.At(k)[axis]; v > maxLeft {
				maxLeft = v
			}
		}
		minRight := math.Inf(1)
		for k := c1.Start; k < c1.End; k++ {
			if v := tr.Points.At(k)[axis]; v < minRight {
				minRight = v
			}
		}
		if maxLeft > minRight {
			t.Fatalf("node %d split axis %d not separated: maxLeft %g > minRight %g", i, axis, maxLeft, minRight)
		}
	}
}

func TestAdmissibilityCriterion(t *testing.T) {
	tr := buildSmall(t, pointset.Cube(300, 3, 11), 20)
	for i := range tr.Nodes {
		for _, j := range tr.Nodes[i].Interaction {
			if !tr.Admissible(i, j) {
				t.Fatalf("interaction pair (%d,%d) not admissible", i, j)
			}
		}
	}
	for _, li := range tr.Leaves {
		for _, lj := range tr.Nodes[li].Near {
			if li != lj && tr.Admissible(li, lj) {
				t.Fatalf("nearfield pair (%d,%d) is admissible", li, lj)
			}
			if !tr.Nodes[lj].IsLeaf {
				t.Fatalf("nearfield partner %d of %d is not a leaf", lj, li)
			}
		}
	}
}

func TestInteractionSymmetry(t *testing.T) {
	tr := buildSmall(t, pointset.Annulus(350, 0.3, 1, 12), 15)
	inIL := func(i, j int) bool {
		for _, v := range tr.Nodes[i].Interaction {
			if v == j {
				return true
			}
		}
		return false
	}
	for i := range tr.Nodes {
		for _, j := range tr.Nodes[i].Interaction {
			if !inIL(j, i) {
				t.Fatalf("interaction list asymmetric: %d has %d but not vice versa", i, j)
			}
		}
	}
}

// TestNearListInvariants pins the nearfield list shape the apply's pair
// tasks chain on: over every point generator and several leaf sizes, each
// leaf's Near list is strictly ascending, contains the leaf, names only
// leaves, and is mirrored (j ∈ Near(i) ⇔ i ∈ Near(j)); internal nodes have
// no Near list.
func TestNearListInvariants(t *testing.T) {
	gens := []struct {
		name string
		pts  *pointset.Points
	}{
		{"cube3d", pointset.Cube(1200, 3, 31)},
		{"sphere", pointset.Sphere(1000, 32)},
		{"dino", pointset.Dino(1000, 33)},
		{"annulus", pointset.Annulus(900, 0.3, 1, 34)},
		{"circle", pointset.Circle(700)},
		{"grid2d", pointset.Grid(30, 2)},
		{"ball4d", pointset.Ball(800, 4, 35)},
		{"mixture", pointset.GaussianMixture(1000, 3, 5, 0.05, 36)},
	}
	for _, g := range gens {
		for _, leaf := range []int{8, 25, 64, 200} {
			tr := New(g.pts, Config{LeafSize: leaf}, nil)
			for id := range tr.Nodes {
				nd := &tr.Nodes[id]
				if !nd.IsLeaf {
					if len(nd.Near) != 0 {
						t.Fatalf("%s/leaf=%d: internal node %d has a Near list", g.name, leaf, id)
					}
					continue
				}
				self := false
				for k, j := range nd.Near {
					if k > 0 && j <= nd.Near[k-1] {
						t.Fatalf("%s/leaf=%d: Near(%d) not strictly ascending: %v", g.name, leaf, id, nd.Near)
					}
					if !tr.Nodes[j].IsLeaf {
						t.Fatalf("%s/leaf=%d: Near(%d) names internal node %d", g.name, leaf, id, j)
					}
					if k := sort.SearchInts(tr.Nodes[j].Near, id); k == len(tr.Nodes[j].Near) || tr.Nodes[j].Near[k] != id {
						t.Fatalf("%s/leaf=%d: %d ∈ Near(%d) but not vice versa", g.name, leaf, j, id)
					}
					self = self || j == id
				}
				if !self {
					t.Fatalf("%s/leaf=%d: leaf %d missing from its own Near list", g.name, leaf, id)
				}
			}
		}
	}
}

// TestBlockCoverageExact is the load-bearing structural invariant: every
// ordered pair of points must be covered by exactly one block — either a
// nearfield leaf pair or one interaction-list pair of ancestors.
func TestBlockCoverageExact(t *testing.T) {
	for _, gen := range []struct {
		name string
		pts  *pointset.Points
	}{
		{"cube3d", pointset.Cube(220, 3, 21)},
		{"sphere", pointset.Sphere(200, 22)},
		{"dino", pointset.Dino(210, 23)},
		{"cube5d", pointset.Cube(160, 5, 24)},
		{"line1d", pointset.Cube(64, 1, 25)},
	} {
		tr := New(gen.pts, Config{LeafSize: 12}, nil)
		n := gen.pts.Len()
		cover := make([]int8, n*n)
		mark := func(i, j int) {
			ni, nj := &tr.Nodes[i], &tr.Nodes[j]
			for p := ni.Start; p < ni.End; p++ {
				row := cover[p*n : p*n+n]
				for q := nj.Start; q < nj.End; q++ {
					row[q]++
				}
			}
		}
		for i := range tr.Nodes {
			for _, j := range tr.Nodes[i].Interaction {
				mark(i, j)
			}
		}
		for _, li := range tr.Leaves {
			for _, lj := range tr.Nodes[li].Near {
				mark(li, lj)
			}
		}
		for p := 0; p < n; p++ {
			for q := 0; q < n; q++ {
				if cover[p*n+q] != 1 {
					t.Fatalf("%s: pair (%d,%d) covered %d times", gen.name, p, q, cover[p*n+q])
				}
			}
		}
	}
}

func TestPermuteRoundTrip(t *testing.T) {
	pts := pointset.Cube(99, 3, 31)
	tr := buildSmall(t, pts, 8)
	rng := rand.New(rand.NewSource(1))
	src := make([]float64, 99)
	for i := range src {
		src[i] = rng.NormFloat64()
	}
	perm := make([]float64, 99)
	back := make([]float64, 99)
	tr.PermuteVec(perm, src)
	tr.UnpermuteVec(back, perm)
	for i := range src {
		if src[i] != back[i] {
			t.Fatalf("permute round trip broke at %d", i)
		}
	}
}

func TestSinglePointAndTinyTrees(t *testing.T) {
	tr := New(pointset.Cube(1, 3, 1), Config{LeafSize: 10}, nil)
	if len(tr.Nodes) != 1 || !tr.Nodes[0].IsLeaf {
		t.Fatal("single point should be a lone leaf root")
	}
	if len(tr.Nodes[0].Near) != 1 || tr.Nodes[0].Near[0] != 0 {
		t.Fatal("lone leaf must be its own nearfield")
	}
	tr2 := New(pointset.Cube(2, 3, 1), Config{LeafSize: 1}, nil)
	if tr2.Depth() != 2 {
		t.Fatalf("two points leaf 1: depth %d", tr2.Depth())
	}
}

func TestDuplicatePointsTerminate(t *testing.T) {
	// All points identical: recursion must still terminate by size.
	pts := pointset.New(50, 2)
	for i := 0; i < 50; i++ {
		pts.At(i)[0], pts.At(i)[1] = 0.5, 0.5
	}
	tr := New(pts, Config{LeafSize: 4}, nil)
	st := tr.ComputeStats()
	if st.MaxLeafSize > 4 {
		t.Fatalf("leaf size %d exceeds cap", st.MaxLeafSize)
	}
	if st.InteractionPairs != 0 {
		t.Fatal("identical points cannot be well-separated")
	}
}

func TestStatsAndBytes(t *testing.T) {
	tr := buildSmall(t, pointset.Cube(400, 3, 41), 32)
	st := tr.ComputeStats()
	if st.Nodes != len(tr.Nodes) || st.Leaves != len(tr.Leaves) || st.Depth != tr.Depth() {
		t.Fatal("stats mismatch")
	}
	if st.MaxLeafSize > 32 || st.MinLeafSize < 1 {
		t.Fatalf("leaf size stats wrong: %+v", st)
	}
	if tr.Bytes() <= tr.Points.Bytes() {
		t.Fatal("Bytes() must include metadata beyond coordinates")
	}
}

func TestEtaAffectsAdmissibility(t *testing.T) {
	pts := pointset.Cube(300, 3, 51)
	loose := New(pts, Config{LeafSize: 16, Eta: 1.2}, nil)
	tight := New(pts, Config{LeafSize: 16, Eta: 0.4}, nil)
	sl := loose.ComputeStats()
	st := tight.ComputeStats()
	if sl.NearPairs <= 0 || st.NearPairs <= 0 {
		t.Fatal("no nearfield pairs")
	}
	// A looser criterion admits more pairs, so fewer nearfield blocks.
	if sl.NearPairs >= st.NearPairs {
		t.Fatalf("eta=1.2 near pairs %d should be < eta=0.4 near pairs %d", sl.NearPairs, st.NearPairs)
	}
}

// TestDeterministicConstruction: the serial (nil pool) and a 4-worker
// partition build the same tree, field for field.
func TestDeterministicConstruction(t *testing.T) {
	pts := pointset.Dino(500, 61)
	pool := par.NewPool(4)
	defer pool.Close()
	a := New(pts, Config{LeafSize: 20}, nil)
	b := New(pts, Config{LeafSize: 20}, pool)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("tree depends on the worker pool")
	}
}
