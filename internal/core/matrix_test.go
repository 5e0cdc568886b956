package core

import (
	"math"
	"math/rand"
	"testing"

	"h2ds/internal/kernel"
	"h2ds/internal/pointset"
	"h2ds/internal/sample"
)

// randVec returns a deterministic random vector of length n.
func randVec(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// relErr returns ||y-want|| / ||want||.
func relErr(y, want []float64) float64 {
	num, den := 0.0, 0.0
	for i := range y {
		d := y[i] - want[i]
		num += d * d
		den += want[i] * want[i]
	}
	if den == 0 {
		return math.Sqrt(num)
	}
	return math.Sqrt(num / den)
}

func TestAccuracyMatchesToleranceDataDriven(t *testing.T) {
	pts := pointset.Cube(2000, 3, 1)
	b := randVec(2000, 2)
	want := DirectApply(pts, kernel.Coulomb{}, b)
	for _, tol := range []float64{1e-4, 1e-6, 1e-8} {
		m, err := Build(pts, kernel.Coulomb{}, Config{Kind: DataDriven, Tol: tol, LeafSize: 100})
		if err != nil {
			t.Fatal(err)
		}
		e := relErr(m.Apply(b), want)
		if e > 10*tol {
			t.Fatalf("tol %g: relative error %g", tol, e)
		}
	}
}

func TestAccuracyMatchesToleranceInterpolation(t *testing.T) {
	pts := pointset.Cube(1500, 3, 3)
	b := randVec(1500, 4)
	want := DirectApply(pts, kernel.Coulomb{}, b)
	for _, tol := range []float64{1e-3, 1e-6} {
		m, err := Build(pts, kernel.Coulomb{}, Config{Kind: Interpolation, Tol: tol, LeafSize: 100})
		if err != nil {
			t.Fatal(err)
		}
		e := relErr(m.Apply(b), want)
		if e > 10*tol {
			t.Fatalf("tol %g: relative error %g", tol, e)
		}
	}
}

func TestAccuracyAllKernels(t *testing.T) {
	pts := pointset.Cube(1200, 3, 5)
	b := randVec(1200, 6)
	for _, k := range []kernel.Kernel{kernel.Coulomb{}, kernel.CoulombCubed{}, kernel.Exponential{}, kernel.Gaussian{Scale: 0.1}} {
		want := DirectApply(pts, k, b)
		m, err := Build(pts, k, Config{Kind: DataDriven, Mode: OnTheFly, Tol: 1e-7, LeafSize: 80})
		if err != nil {
			t.Fatal(err)
		}
		e := relErr(m.Apply(b), want)
		if e > 1e-6 {
			t.Fatalf("%s: relative error %g", k.Name(), e)
		}
	}
}

func TestAccuracyDistributions(t *testing.T) {
	for _, tc := range []struct {
		name string
		pts  *pointset.Points
	}{
		{"sphere", pointset.Sphere(1500, 7)},
		{"dino", pointset.Dino(1500, 8)},
		{"annulus2d", pointset.Annulus(1200, 0.2, 1, 9)},
	} {
		b := randVec(tc.pts.Len(), 10)
		want := DirectApply(tc.pts, kernel.Coulomb{}, b)
		m, err := Build(tc.pts, kernel.Coulomb{}, Config{Kind: DataDriven, Mode: OnTheFly, Tol: 1e-6, LeafSize: 60})
		if err != nil {
			t.Fatal(err)
		}
		e := relErr(m.Apply(b), want)
		if e > 1e-5 {
			t.Fatalf("%s: relative error %g", tc.name, e)
		}
	}
}

func TestAccuracyHighDimensions(t *testing.T) {
	// The data-driven method's selling point: it keeps working beyond 3-D.
	for _, d := range []int{4, 5} {
		pts := pointset.Cube(1500, d, int64(d))
		b := randVec(1500, 11)
		want := DirectApply(pts, kernel.Gaussian{Scale: 0.5}, b)
		m, err := Build(pts, kernel.Gaussian{Scale: 0.5}, Config{Kind: DataDriven, Mode: OnTheFly, Tol: 1e-6, LeafSize: 100})
		if err != nil {
			t.Fatal(err)
		}
		e := relErr(m.Apply(b), want)
		if e > 1e-5 {
			t.Fatalf("d=%d: relative error %g", d, e)
		}
	}
}

func TestOnTheFlyMatchesNormal(t *testing.T) {
	pts := pointset.Cube(2500, 3, 13)
	b := randVec(2500, 14)
	for _, kind := range []BasisKind{DataDriven, Interpolation} {
		tol := 1e-6
		normal, err := Build(pts, kernel.Coulomb{}, Config{Kind: kind, Mode: Normal, Tol: tol, LeafSize: 100})
		if err != nil {
			t.Fatal(err)
		}
		otf, err := Build(pts, kernel.Coulomb{}, Config{Kind: kind, Mode: OnTheFly, Tol: tol, LeafSize: 100})
		if err != nil {
			t.Fatal(err)
		}
		yn := normal.Apply(b)
		yo := otf.Apply(b)
		// Same generators, same blocks; only accumulation order differs for
		// transposed stored blocks, so agreement is to roundoff.
		if e := relErr(yo, yn); e > 1e-13 {
			t.Fatalf("%v: OTF vs normal differ by %g", kind, e)
		}
	}
}

func TestParallelMatchesSerialBitwise(t *testing.T) {
	pts := pointset.Dino(3000, 15)
	b := randVec(3000, 16)
	m1, err := Build(pts, kernel.Coulomb{}, Config{Kind: DataDriven, Mode: OnTheFly, Tol: 1e-6, Workers: 1, LeafSize: 90})
	if err != nil {
		t.Fatal(err)
	}
	m4, err := Build(pts, kernel.Coulomb{}, Config{Kind: DataDriven, Mode: OnTheFly, Tol: 1e-6, Workers: 4, LeafSize: 90})
	if err != nil {
		t.Fatal(err)
	}
	y1 := m1.Apply(b)
	y4 := m4.Apply(b)
	for i := range y1 {
		if y1[i] != y4[i] {
			t.Fatalf("worker-count changed result at %d: %g vs %g", i, y1[i], y4[i])
		}
	}
	// Also: the same matrix applied with different worker settings must be
	// bitwise identical (each output slot has a fixed accumulation order).
	m4.Cfg.Workers = 1
	y4b := m4.Apply(b)
	m4.Cfg.Workers = 4
	y4c := m4.Apply(b)
	for i := range y4b {
		if y4b[i] != y4c[i] {
			t.Fatalf("matvec not deterministic across worker counts at %d", i)
		}
	}
}

func TestLinearityProperty(t *testing.T) {
	pts := pointset.Cube(1000, 3, 17)
	m, err := Build(pts, kernel.Exponential{}, Config{Kind: DataDriven, Tol: 1e-7, LeafSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	x := randVec(1000, 18)
	y := randVec(1000, 19)
	alpha := 0.37
	xy := make([]float64, 1000)
	for i := range xy {
		xy[i] = alpha*x[i] + y[i]
	}
	lhs := m.Apply(xy)
	ax := m.Apply(x)
	ay := m.Apply(y)
	for i := range lhs {
		want := alpha*ax[i] + ay[i]
		if math.Abs(lhs[i]-want) > 1e-10*(1+math.Abs(want)) {
			t.Fatalf("linearity violated at %d: %g vs %g", i, lhs[i], want)
		}
	}
}

func TestSymmetryProperty(t *testing.T) {
	// For a symmetric kernel, xᵀ(Ây) == yᵀ(Âx) up to the approximation's
	// own asymmetry, which is bounded by the construction tolerance.
	pts := pointset.Sphere(1200, 20)
	m, err := Build(pts, kernel.Coulomb{}, Config{Kind: DataDriven, Tol: 1e-8, LeafSize: 80})
	if err != nil {
		t.Fatal(err)
	}
	x := randVec(1200, 21)
	y := randVec(1200, 22)
	ax := m.Apply(x)
	ay := m.Apply(y)
	dot := func(a, b []float64) float64 {
		s := 0.0
		for i := range a {
			s += a[i] * b[i]
		}
		return s
	}
	lhs, rhs := dot(x, ay), dot(y, ax)
	scale := math.Abs(lhs) + math.Abs(rhs)
	if math.Abs(lhs-rhs) > 1e-7*scale {
		t.Fatalf("symmetry violated: %g vs %g", lhs, rhs)
	}
}

func TestDataDrivenRanksBelowInterpolation(t *testing.T) {
	// The paper's Fig 2: same accuracy, lower data-driven ranks.
	pts := pointset.Cube(2000, 3, 23)
	tol := 1e-7
	dd, err := Build(pts, kernel.Coulomb{}, Config{Kind: DataDriven, Tol: tol, LeafSize: 100})
	if err != nil {
		t.Fatal(err)
	}
	ip, err := Build(pts, kernel.Coulomb{}, Config{Kind: Interpolation, Tol: tol, LeafSize: 100})
	if err != nil {
		t.Fatal(err)
	}
	if dd.Stats().MaxRank >= ip.Stats().MaxRank {
		t.Fatalf("data-driven max rank %d not below interpolation %d", dd.Stats().MaxRank, ip.Stats().MaxRank)
	}
	if dd.Stats().SumLeafRank >= ip.Stats().SumLeafRank {
		t.Fatalf("data-driven total leaf rank %d not below interpolation %d",
			dd.Stats().SumLeafRank, ip.Stats().SumLeafRank)
	}
}

func TestMemoryStats(t *testing.T) {
	pts := pointset.Cube(3000, 3, 24)
	tol := 1e-6
	normal, err := Build(pts, kernel.Coulomb{}, Config{Kind: DataDriven, Mode: Normal, Tol: tol, Workers: 2, LeafSize: 60})
	if err != nil {
		t.Fatal(err)
	}
	otf, err := Build(pts, kernel.Coulomb{}, Config{Kind: DataDriven, Mode: OnTheFly, Tol: tol, Workers: 2, LeafSize: 60})
	if err != nil {
		t.Fatal(err)
	}
	mn := normal.Memory()
	mo := otf.Memory()
	if mn.Coupling <= 0 || mn.Nearfield <= 0 {
		t.Fatalf("normal mode must store blocks: %+v", mn)
	}
	if mo.Coupling != 0 || mo.Nearfield != 0 {
		t.Fatalf("on-the-fly mode must not store blocks: %+v", mo)
	}
	if mo.ScratchPerWorker <= 0 || mo.Workers != 2 {
		t.Fatalf("on-the-fly scratch accounting wrong: %+v", mo)
	}
	if mo.Total() >= mn.Total() {
		t.Fatalf("OTF total %d not below normal total %d", mo.Total(), mn.Total())
	}
	if mn.KiB() <= 0 {
		t.Fatal("KiB must be positive")
	}
	if mn.String() == "" || mo.String() == "" {
		t.Fatal("String must render")
	}
	// The scratch bound must cover the largest stored block of the
	// equivalent normal build.
	if mo.ScratchPerWorker < normal.near.MaxBlockBytes() && mo.ScratchPerWorker < normal.coup.MaxBlockBytes() {
		t.Fatalf("scratch bound %d below both max stored blocks (%d near, %d coup)",
			mo.ScratchPerWorker, normal.near.MaxBlockBytes(), normal.coup.MaxBlockBytes())
	}
}

func TestErrorEstimatorTracksTrueError(t *testing.T) {
	pts := pointset.Cube(1500, 3, 25)
	b := randVec(1500, 26)
	m, err := Build(pts, kernel.Coulomb{}, Config{Kind: DataDriven, Tol: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	y := m.Apply(b)
	want := DirectApply(pts, kernel.Coulomb{}, b)
	trueErr := relErr(y, want)
	est := m.RelErrorVs(b, y, 64, 1)
	if est > 100*trueErr+1e-14 || trueErr > 100*est+1e-14 {
		t.Fatalf("estimator %g far from true %g", est, trueErr)
	}
	est2 := m.EstimateRelError(b, DefaultErrorRows, 2)
	if est2 > 1e-4 {
		t.Fatalf("EstimateRelError %g unexpectedly large", est2)
	}
}

func TestSingleLeafTree(t *testing.T) {
	// n <= LeafSize: the whole matrix is one nearfield block and the
	// product must be exact to machine precision.
	pts := pointset.Cube(50, 3, 27)
	b := randVec(50, 28)
	for _, mode := range []MemoryMode{Normal, OnTheFly} {
		m, err := Build(pts, kernel.Coulomb{}, Config{Kind: DataDriven, Mode: mode, LeafSize: 100})
		if err != nil {
			t.Fatal(err)
		}
		want := DirectApply(pts, kernel.Coulomb{}, b)
		if e := relErr(m.Apply(b), want); e > 1e-13 {
			t.Fatalf("mode %v: single-leaf error %g", mode, e)
		}
		if m.Stats().InteractionBlocks != 0 {
			t.Fatal("single leaf cannot have interaction blocks")
		}
	}
}

func TestBuildRejectsEmpty(t *testing.T) {
	if _, err := Build(pointset.New(0, 3), kernel.Coulomb{}, Config{}); err == nil {
		t.Fatal("expected error for empty point set")
	}
	if _, err := Build(pointset.Cube(10, 2, 1), kernel.Coulomb{}, Config{Kind: BasisKind(99)}); err == nil {
		t.Fatal("expected error for unknown basis kind")
	}
}

func TestApplyShapePanics(t *testing.T) {
	pts := pointset.Cube(100, 3, 29)
	m, err := Build(pts, kernel.Coulomb{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	m.ApplyTo(make([]float64, 99), make([]float64, 100))
}

func TestSamplerChoicesAllWork(t *testing.T) {
	pts := pointset.Cube(1200, 3, 30)
	b := randVec(1200, 31)
	want := DirectApply(pts, kernel.Coulomb{}, b)
	for _, s := range []sample.Sampler{sample.AnchorNet{}, sample.FarthestPoint{}, sample.Random{Seed: 5}} {
		m, err := Build(pts, kernel.Coulomb{}, Config{Kind: DataDriven, Tol: 1e-6, Sampler: s})
		if err != nil {
			t.Fatal(err)
		}
		if e := relErr(m.Apply(b), want); e > 1e-4 {
			t.Fatalf("sampler %s: error %g", s.Name(), e)
		}
	}
}

func TestNodeRanksAndSkeletons(t *testing.T) {
	pts := pointset.Cube(1000, 3, 32)
	m, err := Build(pts, kernel.Coulomb{}, Config{Kind: DataDriven, Tol: 1e-6, LeafSize: 60})
	if err != nil {
		t.Fatal(err)
	}
	ranks := m.NodeRanks()
	if len(ranks) != len(m.Tree.Nodes) {
		t.Fatal("NodeRanks length mismatch")
	}
	for id := range m.Tree.Nodes {
		if ranks[id] != m.Rank(id) {
			t.Fatal("NodeRanks disagrees with Rank")
		}
		sk := m.Skeleton(id)
		if len(sk) != ranks[id] {
			t.Fatalf("node %d: skeleton size %d != rank %d", id, len(sk), ranks[id])
		}
		// Data-driven skeletons must be points owned by the node.
		nd := &m.Tree.Nodes[id]
		for _, s := range sk {
			if s < nd.Start || s >= nd.End {
				t.Fatalf("node %d skeleton point %d outside [%d,%d)", id, s, nd.Start, nd.End)
			}
		}
	}
}

func TestNestedBasisConsistency(t *testing.T) {
	// For every internal node p with children c1, c2: the stacked transfer
	// rows must be conformal ((r_c1 + r_c2) x r_p) and the parent skeleton
	// must be a subset of the children skeleton union.
	pts := pointset.Cube(2000, 3, 33)
	m, err := Build(pts, kernel.Coulomb{}, Config{Kind: DataDriven, Tol: 1e-6, LeafSize: 80})
	if err != nil {
		t.Fatal(err)
	}
	for id := range m.Tree.Nodes {
		nd := &m.Tree.Nodes[id]
		if nd.IsLeaf {
			if m.u[id] == nil || m.u[id].Rows != nd.Size() || m.u[id].Cols != m.ranks[id] {
				t.Fatalf("leaf %d basis shape wrong", id)
			}
			continue
		}
		sum := 0
		inChildSkel := map[int]bool{}
		for _, c := range nd.Children {
			sum += m.ranks[c]
			for _, s := range m.skel[c] {
				inChildSkel[s] = true
			}
		}
		if m.trans[id] == nil || m.trans[id].Rows != sum || m.trans[id].Cols != m.ranks[id] {
			t.Fatalf("internal %d transfer shape %dx%d want %dx%d",
				id, m.trans[id].Rows, m.trans[id].Cols, sum, m.ranks[id])
		}
		for _, s := range m.skel[id] {
			if !inChildSkel[s] {
				t.Fatalf("internal %d skeleton point %d not in children skeletons", id, s)
			}
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults(3)
	if cfg.Tol != 1e-8 || cfg.LeafSize <= 0 || cfg.Eta != 0.7 || cfg.Sampler == nil {
		t.Fatalf("defaults wrong: %+v", cfg)
	}
	if cfg.SampleBudget <= 0 {
		t.Fatalf("derived parameters missing: %+v", cfg)
	}
	if DefaultSampleBudget(1e-2, 3) >= DefaultSampleBudget(1e-10, 3) {
		t.Fatal("budget must grow with accuracy")
	}
	if DefaultSampleBudget(1e-6, 3) >= DefaultSampleBudget(1e-6, 6) {
		t.Fatal("budget must grow with dimension")
	}
	if DefaultSampleBudget(0, 3) != DefaultSampleBudget(1e-8, 3) {
		t.Fatal("tol<=0 must default")
	}
	if BasisKind(7).String() == "" || MemoryMode(7).String() == "" {
		t.Fatal("String must render unknown values")
	}
}

func TestBuildStatsPopulated(t *testing.T) {
	pts := pointset.Cube(2000, 3, 34)
	m, err := Build(pts, kernel.Coulomb{}, Config{Kind: DataDriven, Mode: Normal, Tol: 1e-6, LeafSize: 60})
	if err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if ph := st.Phases; ph.TotalNS <= 0 || ph.TreeNS <= 0 || ph.SampleNS <= 0 || ph.BasisNS <= 0 || ph.CouplingNS <= 0 {
		t.Fatalf("timings not populated: %+v", st)
	}
	if st.Nodes == 0 || st.Leaves == 0 || st.Depth == 0 || st.MaxRank == 0 {
		t.Fatalf("counters not populated: %+v", st)
	}
	if st.InteractionBlocks == 0 || st.NearBlocks == 0 {
		t.Fatalf("block counts not populated: %+v", st)
	}
}
