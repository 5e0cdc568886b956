package core

import (
	"math"
	"testing"

	"h2ds/internal/kernel"
	"h2ds/internal/mat"
	"h2ds/internal/pointset"
)

// driftKernel is a genuinely unsymmetric smooth kernel:
// K(x, y) = exp(-||x - y - shift||). Because the shift breaks the
// x <-> y exchange symmetry, K(x, y) != K(y, x), which forces the H²
// construction onto the general U/V, R/W path of the paper's Algorithm 2.
type driftKernel struct {
	shift []float64
}

func (d driftKernel) EvalPair(x, y []float64) float64 {
	s := 0.0
	for i := range x {
		v := x[i] - y[i] - d.shift[i]
		s += v * v
	}
	return math.Exp(-math.Sqrt(s))
}

func (driftKernel) Symmetric() bool { return false }
func (driftKernel) Name() string    { return "drift-exp" }

func drift3() driftKernel { return driftKernel{shift: []float64{0.15, -0.08, 0.05}} }

func TestUnsymmetricKernelIsActuallyUnsymmetric(t *testing.T) {
	k := drift3()
	x := []float64{0.1, 0.2, 0.3}
	y := []float64{0.7, 0.5, 0.9}
	if k.EvalPair(x, y) == k.EvalPair(y, x) {
		t.Fatal("test kernel failed to be unsymmetric")
	}
}

func TestUnsymmetricAccuracyDataDriven(t *testing.T) {
	pts := pointset.Cube(2000, 3, 70)
	b := randVec(2000, 71)
	k := drift3()
	want := DirectApply(pts, k, b)
	for _, tol := range []float64{1e-4, 1e-7} {
		for _, mode := range []MemoryMode{Normal, OnTheFly} {
			m, err := Build(pts, k, Config{Kind: DataDriven, Mode: mode, Tol: tol, LeafSize: 80})
			if err != nil {
				t.Fatal(err)
			}
			if e := relErr(m.Apply(b), want); e > 10*tol {
				t.Fatalf("tol %g mode %v: error %g", tol, mode, e)
			}
		}
	}
}

func TestUnsymmetricAccuracyInterpolation(t *testing.T) {
	// Interpolation's polynomial bases are kernel independent, so the
	// unsymmetric kernel only changes the (directed) coupling blocks.
	pts := pointset.Cube(1500, 3, 72)
	b := randVec(1500, 73)
	k := drift3()
	want := DirectApply(pts, k, b)
	for _, mode := range []MemoryMode{Normal, OnTheFly} {
		m, err := Build(pts, k, Config{Kind: Interpolation, Mode: mode, Tol: 1e-5, LeafSize: 100})
		if err != nil {
			t.Fatal(err)
		}
		if e := relErr(m.Apply(b), want); e > 1e-4 {
			t.Fatalf("mode %v: error %g", mode, e)
		}
	}
}

func TestUnsymmetricOTFMatchesNormal(t *testing.T) {
	pts := pointset.Cube(1800, 3, 74)
	b := randVec(1800, 75)
	k := drift3()
	mn, err := Build(pts, k, Config{Kind: DataDriven, Mode: Normal, Tol: 1e-6, LeafSize: 80})
	if err != nil {
		t.Fatal(err)
	}
	mo, err := Build(pts, k, Config{Kind: DataDriven, Mode: OnTheFly, Tol: 1e-6, LeafSize: 80})
	if err != nil {
		t.Fatal(err)
	}
	yn := mn.Apply(b)
	yo := mo.Apply(b)
	// Directed storage applies identical blocks in identical order: the
	// two modes must agree bitwise for unsymmetric kernels.
	for i := range yn {
		if yn[i] != yo[i] {
			t.Fatalf("OTF differs from normal at %d: %g vs %g", i, yn[i], yo[i])
		}
	}
}

func TestUnsymmetricSeparateBases(t *testing.T) {
	pts := pointset.Cube(1500, 3, 76)
	m, err := Build(pts, drift3(), Config{Kind: DataDriven, Tol: 1e-6, LeafSize: 80})
	if err != nil {
		t.Fatal(err)
	}
	if m.sharedBasis {
		t.Fatal("unsymmetric kernel must not share bases")
	}
	// Row and column skeletons must both be populated and (generically)
	// differ somewhere.
	differ := false
	for id := range m.Tree.Nodes {
		if m.ranks[id] != len(m.skel[id]) || m.colRanks[id] != len(m.colSkel[id]) {
			t.Fatalf("node %d: rank/skeleton inconsistency", id)
		}
		if len(m.skel[id]) != len(m.colSkel[id]) {
			differ = true
			continue
		}
		for s := range m.skel[id] {
			if m.skel[id][s] != m.colSkel[id][s] {
				differ = true
				break
			}
		}
	}
	if !differ {
		t.Fatal("row and column skeletons identical everywhere; column path likely not running")
	}
	// Memory accounting must include both sides.
	mem := m.Memory()
	if mem.Basis <= 0 || mem.Transfer <= 0 {
		t.Fatalf("memory stats missing: %+v", mem)
	}
}

func TestSymmetricKernelsShareBases(t *testing.T) {
	pts := pointset.Cube(800, 3, 77)
	m, err := Build(pts, kernel.Coulomb{}, Config{Kind: DataDriven, Tol: 1e-5, LeafSize: 60})
	if err != nil {
		t.Fatal(err)
	}
	if !m.sharedBasis {
		t.Fatal("symmetric kernel must share bases")
	}
	if m.v != nil || m.wTrans != nil {
		t.Fatal("symmetric build must not allocate column-side arrays")
	}
}

func TestUnsymmetricErrorEstimator(t *testing.T) {
	pts := pointset.Cube(1200, 3, 78)
	b := randVec(1200, 79)
	k := drift3()
	m, err := Build(pts, k, Config{Kind: DataDriven, Mode: OnTheFly, Tol: 1e-7, LeafSize: 80})
	if err != nil {
		t.Fatal(err)
	}
	y := m.Apply(b)
	est := m.RelErrorVs(b, y, 32, 80)
	want := DirectApply(pts, k, b)
	truth := relErr(y, want)
	if est > 100*truth+1e-14 || truth > 100*est+1e-14 {
		t.Fatalf("estimator %g vs true %g", est, truth)
	}
}

func TestDirectedBlockStore(t *testing.T) {
	b := mat.NewDenseData(3, 2, []float64{1, 2, 3, 4, 5, 6})
	s := storeOf(true, map[blockKey]*mat.Dense{{5, 1}: b}) // reversed order allowed in directed mode
	if got := s.Get(5, 1); got == nil || !got.Equal(b, 0) || s.Get(1, 5) != nil {
		t.Fatal("directed store key handling wrong")
	}
	g := make([]float64, 3)
	if !applyStored(s, g, 5, 1, []float64{1, 2}) {
		t.Fatal("directed apply missed")
	}
	if applyStored(s, g, 1, 5, []float64{1, 2, 3}) {
		t.Fatal("directed apply must not transpose")
	}
}
