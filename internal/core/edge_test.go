package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"h2ds/internal/kernel"
	"h2ds/internal/pointset"
)

func TestSinglePoint(t *testing.T) {
	pts := pointset.Cube(1, 3, 50)
	for _, kind := range []BasisKind{DataDriven, Interpolation} {
		m, err := Build(pts, kernel.Gaussian{Scale: 0.1}, Config{Kind: kind, Tol: 1e-6})
		if err != nil {
			t.Fatal(err)
		}
		y := m.Apply([]float64{2})
		// A 1x1 Gaussian matrix has K(x,x)=1 on the diagonal.
		if math.Abs(y[0]-2) > 1e-14 {
			t.Fatalf("%v: single point apply got %g want 2", kind, y[0])
		}
	}
}

func TestDuplicatePointsBuild(t *testing.T) {
	// Coincident points are legal input (singular kernels use the
	// zero-diagonal convention); the build must not blow up and must agree
	// with the dense reference.
	pts := pointset.New(0, 2)
	rng := rand.New(rand.NewSource(51))
	for i := 0; i < 300; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		pts.Append(x)
		if i%3 == 0 {
			pts.Append(x) // exact duplicate
		}
	}
	b := randVec(pts.Len(), 52)
	want := DirectApply(pts, kernel.Coulomb{}, b)
	m, err := Build(pts, kernel.Coulomb{}, Config{Kind: DataDriven, Mode: OnTheFly, Tol: 1e-6, LeafSize: 30})
	if err != nil {
		t.Fatal(err)
	}
	if e := relErr(m.Apply(b), want); e > 1e-5 {
		t.Fatalf("duplicates: error %g", e)
	}
}

func TestRepeatedApplyIsStable(t *testing.T) {
	// Scratch reuse across applies must not contaminate results.
	pts := pointset.Cube(1500, 3, 53)
	m, err := Build(pts, kernel.Coulomb{}, Config{Kind: DataDriven, Mode: OnTheFly, Tol: 1e-6, LeafSize: 60, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	b := randVec(1500, 54)
	first := m.Apply(b)
	for trial := 0; trial < 3; trial++ {
		again := m.Apply(b)
		for i := range first {
			if first[i] != again[i] {
				t.Fatalf("apply %d differs at %d", trial, i)
			}
		}
		// Interleave a different vector to dirty the scratch buffers.
		m.Apply(randVec(1500, int64(60+trial)))
	}
}

func TestBasisVectorColumns(t *testing.T) {
	// Applying to unit vectors extracts matrix columns; spot-check a few
	// against direct kernel evaluation.
	pts := pointset.Cube(800, 3, 55)
	m, err := Build(pts, kernel.Exponential{}, Config{Kind: DataDriven, Tol: 1e-8, LeafSize: 50})
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range []int{0, 399, 799} {
		e := make([]float64, 800)
		e[j] = 1
		col := m.Apply(e)
		for _, i := range []int{5, 200, 795} {
			want := kernel.Eval(kernel.Exponential{}, pts.At(i), pts.At(j))
			if i == j {
				want = 1 // exp(-0)
			}
			if math.Abs(col[i]-want) > 1e-6 {
				t.Fatalf("column %d row %d: got %g want %g", j, i, col[i], want)
			}
		}
	}
}

func TestQuickRandomWorkloads(t *testing.T) {
	// Property: for random small workloads across kinds/modes/dims, the H²
	// product agrees with the dense product to within 100x the tolerance.
	f := func(seed int64, pick uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 300 + rng.Intn(500)
		d := 2 + rng.Intn(3)
		pts := pointset.Cube(n, d, seed)
		kind := DataDriven
		if pick&1 != 0 {
			kind = Interpolation
		}
		mode := Normal
		if pick&2 != 0 {
			mode = OnTheFly
		}
		tol := 1e-5
		m, err := Build(pts, kernel.Exponential{}, Config{Kind: kind, Mode: mode, Tol: tol, LeafSize: 40})
		if err != nil {
			return false
		}
		b := randVec(n, seed+1)
		want := DirectApply(pts, kernel.Exponential{}, b)
		return relErr(m.Apply(b), want) < 100*tol
	}
	cfg := &quick.Config{MaxCount: 8, Rand: rand.New(rand.NewSource(99))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestClusteredDistribution(t *testing.T) {
	// Two tight, well-separated clusters: stresses admissibility at the top
	// of the tree and near-duplicate sampling.
	pts := pointset.New(0, 3)
	rng := rand.New(rand.NewSource(56))
	for i := 0; i < 600; i++ {
		base := 0.0
		if i%2 == 1 {
			base = 20
		}
		pts.Append([]float64{base + rng.Float64(), rng.Float64(), rng.Float64()})
	}
	b := randVec(600, 57)
	want := DirectApply(pts, kernel.Coulomb{}, b)
	m, err := Build(pts, kernel.Coulomb{}, Config{Kind: DataDriven, Mode: OnTheFly, Tol: 1e-7, LeafSize: 40})
	if err != nil {
		t.Fatal(err)
	}
	if e := relErr(m.Apply(b), want); e > 1e-6 {
		t.Fatalf("clustered: error %g", e)
	}
	// The two clusters must interact through a coupling block high in the
	// tree, not through dense nearfield.
	if m.Stats().InteractionBlocks == 0 {
		t.Fatal("well-separated clusters must produce interaction blocks")
	}
}

func TestSignChangingAndFlatKernels(t *testing.T) {
	// The thin-plate spline grows with distance and changes sign — a
	// stress test for the sign-oblivious sampling and pivoted
	// factorizations; the inverse multiquadric is smooth at the origin.
	pts := pointset.Cube(1200, 2, 200)
	b := randVec(1200, 201)
	for _, k := range []kernel.Kernel{kernel.ThinPlate{}, kernel.InverseMultiquadric{C: 0.5}, kernel.Matern52{Length: 1}} {
		want := DirectApply(pts, k, b)
		m, err := Build(pts, k, Config{Kind: DataDriven, Mode: OnTheFly, Tol: 1e-7, LeafSize: 60})
		if err != nil {
			t.Fatal(err)
		}
		if e := relErr(m.Apply(b), want); e > 1e-5 {
			t.Fatalf("%s: relative error %g", k.Name(), e)
		}
	}
}

func TestZeroInputVector(t *testing.T) {
	pts := pointset.Cube(500, 3, 58)
	m, err := Build(pts, kernel.Coulomb{}, Config{Kind: DataDriven, Tol: 1e-6, LeafSize: 50})
	if err != nil {
		t.Fatal(err)
	}
	y := m.Apply(make([]float64, 500))
	for i, v := range y {
		if v != 0 {
			t.Fatalf("A*0 != 0 at %d: %g", i, v)
		}
	}
}

func TestOneDimensionalPoints(t *testing.T) {
	pts := pointset.Cube(1000, 1, 59)
	b := randVec(1000, 60)
	want := DirectApply(pts, kernel.Exponential{}, b)
	for _, kind := range []BasisKind{DataDriven, Interpolation} {
		m, err := Build(pts, kernel.Exponential{}, Config{Kind: kind, Mode: OnTheFly, Tol: 1e-7, LeafSize: 40})
		if err != nil {
			t.Fatal(err)
		}
		if e := relErr(m.Apply(b), want); e > 1e-6 {
			t.Fatalf("%v 1-D: error %g", kind, e)
		}
	}
}
