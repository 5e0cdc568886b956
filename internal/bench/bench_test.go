package bench

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"h2ds/internal/core"
	"h2ds/internal/kernel"
	"h2ds/internal/pointset"
)

// tinyOpt returns options small enough for unit tests.
func tinyOpt(buf *bytes.Buffer) Options {
	return Options{Scale: "tiny", Threads: 2, Seed: 1, MatVecReps: 1, Conc: 4, Out: buf}
}

func TestMeasureProducesSaneNumbers(t *testing.T) {
	pts := pointset.Cube(3000, 3, 1)
	r, err := Measure(pts, kernel.Coulomb{}, core.Config{
		Kind: core.DataDriven, Mode: core.OnTheFly, Tol: 1e-6, LeafSize: 60, Workers: 2,
	}, Options{Seed: 1, MatVecReps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.N != 3000 || r.Dim != 3 || r.Kernel != "coulomb" {
		t.Fatalf("identity fields wrong: %+v", r)
	}
	if r.TConstMS <= 0 || r.TMatVecMS <= 0 || r.MemKiB <= 0 {
		t.Fatalf("timings/memory not measured: %+v", r)
	}
	if r.RelErr > 1e-4 || r.MaxRank == 0 {
		t.Fatalf("accuracy fields wrong: %+v", r)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := Run("fig99", Options{}); err == nil {
		t.Fatal("unknown experiment must error")
	}
}

func TestExperimentsList(t *testing.T) {
	ids := Experiments()
	if len(ids) != 17 {
		t.Fatalf("experiment list changed unexpectedly: %v", ids)
	}
	seen := map[string]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("duplicate experiment id %s", id)
		}
		seen[id] = true
	}
}

func TestFig2Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	var buf bytes.Buffer
	if err := Fig2(tinyOpt(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"per-level basis ranks", "dd_med", "interp_rank", "achieved relerr"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fig2 output missing %q:\n%s", want, out)
		}
	}
}

func TestInterpFeasible(t *testing.T) {
	if _, ok := interpFeasible(1e-8, 3); !ok {
		t.Fatal("3-D at 1e-8 must be feasible")
	}
	if rank, ok := interpFeasible(1e-8, 5); ok {
		t.Fatalf("5-D at 1e-8 should exceed the cap (rank %d)", rank)
	}
}

func TestLeafSizeForMonotone(t *testing.T) {
	if leafSizeFor(1000) > leafSizeFor(10000) || leafSizeFor(10000) > leafSizeFor(100000) {
		t.Fatal("leaf size must not shrink with n")
	}
}

func TestMedianInt(t *testing.T) {
	if medianInt([]int{5, 1, 9}) != 5 {
		t.Fatal("median of 3")
	}
	if medianInt([]int{2}) != 2 {
		t.Fatal("median of 1")
	}
	in := []int{3, 1, 2}
	medianInt(in)
	if in[0] != 3 {
		t.Fatal("median must not mutate input")
	}
}

func TestTreeDepthForGrows(t *testing.T) {
	if treeDepthFor(500, 50) >= treeDepthFor(50000, 50) {
		t.Fatal("depth must grow with n")
	}
}

func TestEstimateRowsZeroOnExact(t *testing.T) {
	pts := pointset.Cube(300, 3, 2)
	b := randVec(300, 3)
	y := core.DirectApply(pts, kernel.Coulomb{}, b)
	if e := estimateRows(pts, kernel.Coulomb{}, b, y, 12, 5); e > 1e-14 {
		t.Fatalf("estimate on exact product should be ~0, got %g", e)
	}
}

func TestOptionsDefaults(t *testing.T) {
	var o Options
	if o.reps() != 3 {
		t.Fatal("default reps")
	}
	if o.seed() != 1 {
		t.Fatal("default seed")
	}
	if o.sampler().Name() != "anchornet" {
		t.Fatal("default sampler")
	}
	if o.rhs() != 8 {
		t.Fatal("default rhs")
	}
	if k, err := o.kernel(); err != nil || k.Name() != "coulomb" {
		t.Fatalf("default kernel: %v, %v", k, err)
	}
	if o.conc() != 32 {
		t.Fatal("default conc")
	}
	if o.window() != 500*time.Microsecond {
		t.Fatal("default window")
	}
	if _, err := (Options{Kernel: "nope"}).kernel(); err == nil {
		t.Fatal("unknown kernel accepted")
	}
	if o.out() == nil {
		t.Fatal("default out")
	}
	o2 := Options{Sampler: "fps", Seed: 9, MatVecReps: 5}
	if o2.sampler().Name() != "fps" || o2.seed() != 9 || o2.reps() != 5 {
		t.Fatal("explicit options ignored")
	}
}

// TestRunnersSmoke drives every remaining experiment runner end to end at
// the tiny test scale and sanity-checks the report structure.
func TestRunnersSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, tc := range []struct {
		exp  string
		want []string
	}{
		{"fig4", []string{"distribution cube", "distribution sphere", "distribution dino", "data-driven", "interpolation"}},
		{"fig5", []string{"dimension d=2", "dimension d=5", "skipped", "exceeds cap"}},
		{"fig6", []string{"all four combinations", "normal", "on-the-fly"}},
		{"table1", []string{"Table I", "interpolation", "data-driven"}},
		{"fig7", []string{"threads sweep", "14"}},
		{"fig8", []string{"tolerance sweep", "1e-02", "1e-08"}},
		{"fig9", []string{"kernel coulomb", "kernel coulomb3", "kernel exp", "kernel gaussian"}},
		{"rhs", []string{"multi-RHS batch apply", "batched apply vs sequential", "on-the-fly", "speedup"}},
		{"serve", []string{"request batching under concurrent load", "per-request", "batched",
			`BENCH {"exp":"serve"`, `"speedup"`}},
	} {
		var buf bytes.Buffer
		opt := tinyOpt(&buf)
		if err := Run(tc.exp, opt); err != nil {
			t.Fatalf("%s: %v", tc.exp, err)
		}
		out := buf.String()
		for _, w := range tc.want {
			if !strings.Contains(out, w) {
				t.Fatalf("%s output missing %q:\n%s", tc.exp, w, out)
			}
		}
	}
}

// TestAblationSmoke exercises the sampler + format ablation end to end on a
// reduced problem by invoking the runner directly.
func TestAblationSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	var buf bytes.Buffer
	opt := tinyOpt(&buf)
	if err := Ablation(opt); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"anchornet", "fps", "random", "H2 (nested)", "H (non-nested)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("ablation output missing %q", want)
		}
	}
}
