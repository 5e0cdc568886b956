package core

import (
	"math"
	"testing"

	"h2ds/internal/kernel"
	"h2ds/internal/mat"
	"h2ds/internal/pointset"
)

func TestApplyTransposeSymmetricEqualsApply(t *testing.T) {
	pts := pointset.Cube(1500, 3, 110)
	b := randVec(1500, 111)
	for _, mode := range []MemoryMode{Normal, OnTheFly} {
		m, err := Build(pts, kernel.Coulomb{}, Config{Kind: DataDriven, Mode: mode, Tol: 1e-6, LeafSize: 70})
		if err != nil {
			t.Fatal(err)
		}
		y := m.Apply(b)
		yt := m.ApplyTranspose(b)
		for i := range y {
			if math.Abs(y[i]-yt[i]) > 1e-12*(1+math.Abs(y[i])) {
				t.Fatalf("mode %v: symmetric transpose differs at %d: %g vs %g", mode, i, y[i], yt[i])
			}
		}
	}
}

func TestApplyTransposeUnsymmetricVsDense(t *testing.T) {
	pts := pointset.Cube(1500, 3, 112)
	b := randVec(1500, 113)
	k := drift3()
	// Exact Aᵀ b: row i of Aᵀ is column i of A, i.e. Σ_j K(x_j, x_i) b_j.
	want := make([]float64, 1500)
	for j := 0; j < 1500; j++ {
		if b[j] == 0 {
			continue
		}
		for i := 0; i < 1500; i++ {
			want[i] += k.EvalPair(pts.At(j), pts.At(i)) * b[j]
		}
	}
	for _, mode := range []MemoryMode{Normal, OnTheFly} {
		m, err := Build(pts, k, Config{Kind: DataDriven, Mode: mode, Tol: 1e-7, LeafSize: 70})
		if err != nil {
			t.Fatal(err)
		}
		if e := relErr(m.ApplyTranspose(b), want); e > 1e-5 {
			t.Fatalf("mode %v: transpose error %g", mode, e)
		}
	}
}

func TestApplyTransposeAdjointIdentity(t *testing.T) {
	// ⟨Âx, y⟩ == ⟨x, Âᵀy⟩ must hold exactly for the same representation.
	pts := pointset.Cube(1200, 3, 114)
	k := drift3()
	m, err := Build(pts, k, Config{Kind: DataDriven, Mode: OnTheFly, Tol: 1e-6, LeafSize: 60})
	if err != nil {
		t.Fatal(err)
	}
	x := randVec(1200, 115)
	y := randVec(1200, 116)
	ax := m.Apply(x)
	aty := m.ApplyTranspose(y)
	lhs := mat.Dot(ax, y)
	rhs := mat.Dot(x, aty)
	if math.Abs(lhs-rhs) > 1e-9*(math.Abs(lhs)+math.Abs(rhs)) {
		t.Fatalf("adjoint identity violated: %g vs %g", lhs, rhs)
	}
}

func TestApplyBatchMatchesColumnwise(t *testing.T) {
	// Every column of a batch apply is the vector apply of that column, bit
	// for bit, on a non-uniform point set.
	pts := pointset.Dino(1500, 117)
	for _, k := range []kernel.Pairwise{kernel.Coulomb{}, drift3()} {
		for mode, m := range buildModes(t, pts, k, 60) {
			for _, width := range []int{1, 4} {
				requireBatchColumnsBitwise(t, k.Name()+"/"+mode, m, nil, rhsPanel(1500, width, 120))
			}
		}
	}
}

func TestApplyBatchShapePanics(t *testing.T) {
	pts := pointset.Cube(200, 3, 130)
	m, err := Build(pts, kernel.Coulomb{}, Config{Tol: 1e-4, LeafSize: 50})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.ApplyBatch(mat.NewDense(100, 2))
}
