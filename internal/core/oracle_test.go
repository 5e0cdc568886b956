package core

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"testing"

	"h2ds/internal/kernel"
	"h2ds/internal/oracle"
	"h2ds/internal/pointset"
)

// testGram assembles the dense matrix of kernel name on pts, row-major.
func testGram(t *testing.T, pts *pointset.Points, name string) (kernel.Kernel, []float64) {
	t.Helper()
	k, err := kernel.ByName(name)
	if err != nil {
		t.Fatalf("kernel: %v", err)
	}
	n := pts.Len()
	data := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			data[i*n+j] = k.EvalPair(pts.At(i), pts.At(j))
		}
	}
	return k, data
}

func denseMulVec(n int, data, b []float64) []float64 {
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		row := data[i*n : (i+1)*n]
		var s float64
		for j, v := range row {
			s += v * b[j]
		}
		y[i] = s
	}
	return y
}

func testRandVec(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func relDiff(a, b []float64) float64 {
	var num, den float64
	for i := range a {
		d := a[i] - b[i]
		num += d * d
		den += b[i] * b[i]
	}
	if den == 0 {
		return math.Sqrt(num)
	}
	return math.Sqrt(num / den)
}

// TestOracleCrossValidation builds the same Gram matrix twice — through the
// kernel path on coordinates and geometry-obliviously through the dense
// entry oracle — at reltol 1e-6, and checks both error certificates land
// under the tolerance and the two applies agree on random vectors to the
// same order.
func TestOracleCrossValidation(t *testing.T) {
	const (
		n      = 700
		reltol = 1e-6
	)
	pts := pointset.Cube(n, 3, 21)
	k, data := testGram(t, pts, "gaussian")
	cfg := Config{Kind: DataDriven, Mode: Normal, RelTol: reltol, LeafSize: 50, Workers: 4}

	mk, err := Build(pts, k, cfg)
	if err != nil {
		t.Fatalf("kernel build: %v", err)
	}
	src, err := oracle.NewDense(n, data, true)
	if err != nil {
		t.Fatal(err)
	}
	mo, err := BuildOracle(src, cfg)
	if err != nil {
		t.Fatalf("oracle build: %v", err)
	}

	if got := mk.Stats().EstRelErr; got > reltol {
		t.Errorf("kernel path certificate %.3e above reltol %g", got, reltol)
	}
	if got := mo.Stats().EstRelErr; got > reltol {
		t.Errorf("oracle path certificate %.3e above reltol %g", got, reltol)
	}

	for trial := int64(0); trial < 3; trial++ {
		b := testRandVec(n, 100+trial)
		yref := denseMulVec(n, data, b)
		yk := mk.Apply(b)
		yo := mo.Apply(b)
		if e := relDiff(yk, yref); e > 10*reltol {
			t.Errorf("trial %d: kernel apply off dense reference by %.3e", trial, e)
		}
		if e := relDiff(yo, yref); e > 10*reltol {
			t.Errorf("trial %d: oracle apply off dense reference by %.3e", trial, e)
		}
		if e := relDiff(yo, yk); e > 20*reltol {
			t.Errorf("trial %d: paths disagree by %.3e", trial, e)
		}
	}
}

// TestOracleKernelLessSerialize checks the v5 stored-block stream: a
// kernel-less matrix round-trips through WriteTo/ReadAny with bitwise-equal
// applies, twice (a replica of a replica stays bitwise equal too), and the
// loaded matrix reports itself kernel-less.
func TestOracleKernelLessSerialize(t *testing.T) {
	const n = 400
	pts := pointset.Cube(n, 3, 33)
	_, data := testGram(t, pts, "gaussian")
	src, _ := oracle.NewDense(n, data, true)
	m, err := BuildOracle(src, Config{Tol: 1e-6, LeafSize: 40, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !m.KernelLess() || !m.HasKernel() {
		t.Fatalf("fresh oracle build: KernelLess=%v HasKernel=%v, want true/true", m.KernelLess(), m.HasKernel())
	}

	b := testRandVec(n, 7)
	y1 := m.Apply(b)

	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatalf("write: %v", err)
	}
	stream := buf.Bytes()
	m2, err := ReadAny(bytes.NewReader(stream))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !m2.KernelLess() || m2.HasKernel() {
		t.Fatalf("loaded: KernelLess=%v HasKernel=%v, want true/false", m2.KernelLess(), m2.HasKernel())
	}
	y2 := m2.Apply(b)
	for i := range y1 {
		if y1[i] != y2[i] {
			t.Fatalf("apply differs at %d after load: %g vs %g", i, y1[i], y2[i])
		}
	}

	// Replica of a replica: the blocks travel verbatim, so the second hop is
	// bitwise identical as well — and so is the re-serialized stream.
	var buf2 bytes.Buffer
	if _, err := m2.WriteTo(&buf2); err != nil {
		t.Fatalf("re-write: %v", err)
	}
	if !bytes.Equal(stream, buf2.Bytes()) {
		t.Fatal("re-serialized kernel-less stream is not byte-identical")
	}
	m3, err := ReadAny(&buf2)
	if err != nil {
		t.Fatalf("re-read: %v", err)
	}
	y3 := m3.Apply(b)
	for i := range y1 {
		if y1[i] != y3[i] {
			t.Fatalf("apply differs at %d after second hop", i)
		}
	}
}

// TestOracleUnsymmetric drives the directed-store path: an unsymmetric
// compressible matrix (a kernel between two different point clouds) built
// through the oracle applies close to the dense reference.
func TestOracleUnsymmetric(t *testing.T) {
	const n = 400
	xs := pointset.Cube(n, 3, 41)
	ys := pointset.Cube(n, 3, 42)
	k, err := kernel.ByName("gaussian")
	if err != nil {
		t.Fatal(err)
	}
	data := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			data[i*n+j] = k.EvalPair(xs.At(i), ys.At(j))
		}
	}
	src, _ := oracle.NewDense(n, data, false)
	m, err := BuildOracle(src, Config{Tol: 1e-8, LeafSize: 40, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	b := testRandVec(n, 9)
	y := m.Apply(b)
	yref := denseMulVec(n, data, b)
	if e := relDiff(y, yref); e > 1e-4 {
		t.Fatalf("unsymmetric oracle apply off dense reference by %.3e", e)
	}
}

// TestOracleBuildRejectsModes: the oracle path is stored-only data-driven;
// everything else errors clearly instead of building something that panics
// at apply or load time.
func TestOracleBuildRejectsModes(t *testing.T) {
	src, _ := oracle.NewDense(2, []float64{2, 1, 1, 2}, true)
	if _, err := BuildOracle(src, Config{Mode: OnTheFly}); err == nil {
		t.Error("on-the-fly accepted")
	}
	if _, err := BuildOracle(src, Config{Mode: Hybrid}); err == nil {
		t.Error("hybrid accepted")
	}
	if _, err := BuildOracle(src, Config{Kind: Interpolation}); err == nil {
		t.Error("interpolation accepted")
	}
	if _, err := BuildOracle(nil, Config{}); err == nil {
		t.Error("nil source accepted")
	}
}

// TestKernelLessHybridWriteRejected: derived hybrid views of an oracle build
// cannot serialize (their apply would need the oracle after load).
func TestKernelLessHybridWriteRejected(t *testing.T) {
	const n = 300
	pts := pointset.Cube(n, 3, 55)
	_, data := testGram(t, pts, "gaussian")
	src, _ := oracle.NewDense(n, data, true)
	m, err := BuildOracle(src, Config{Tol: 1e-5, LeafSize: 40, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	h := m.WithStorageBudget(1024)
	if _, err := h.WriteTo(&bytes.Buffer{}); err == nil {
		t.Fatal("hybrid kernel-less stream accepted")
	}
}

// TestKernelLessStreamBytesStable pins the v5 byte layout of stored blocks:
// testdata/kernel-less-v5.bin was written by the single-slab block store
// that per-row payloads replaced. It must load and re-write byte for byte,
// and the same kernel-less Normal build must write those bytes again and
// survive WriteTo → Read → WriteTo unchanged.
func TestKernelLessStreamBytesStable(t *testing.T) {
	golden, err := os.ReadFile("testdata/kernel-less-v5.bin")
	if err != nil {
		t.Fatal(err)
	}
	rewrite := func(tag string, m *Matrix) []byte {
		t.Helper()
		checkStoreLayout(t, tag+" coupling", m.coup)
		checkStoreLayout(t, tag+" nearfield", m.near)
		var buf bytes.Buffer
		if _, err := m.WriteTo(&buf); err != nil {
			t.Fatalf("%s: write: %v", tag, err)
		}
		return buf.Bytes()
	}
	loaded, err := ReadAny(bytes.NewReader(golden))
	if err != nil {
		t.Fatalf("load the checked-in stream: %v", err)
	}
	if !bytes.Equal(rewrite("loaded", loaded), golden) {
		t.Fatal("the checked-in stream does not re-write byte for byte")
	}

	const n = 64
	pts := pointset.Cube(n, 3, 41)
	_, data := testGram(t, pts, "coulomb")
	src, _ := oracle.NewDense(n, data, true)
	m, err := BuildOracle(src, Config{Tol: 1e-4, LeafSize: 8, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	stream := rewrite("built", m)
	if !bytes.Equal(stream, golden) {
		t.Fatal("a fresh kernel-less build no longer writes the checked-in bytes")
	}
	again, err := ReadAny(bytes.NewReader(stream))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(rewrite("reloaded", again), stream) {
		t.Fatal("WriteTo → Read → WriteTo changed the bytes")
	}
}
