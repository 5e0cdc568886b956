package kernel

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"h2ds/internal/mat"
	"h2ds/internal/pointset"
)

// skewPair is a non-radial Pairwise test kernel: it exercises the
// EvalPair fallback of the fused primitives. It is deliberately
// unsymmetric.
type skewPair struct{}

func (skewPair) EvalPair(x, y []float64) float64 {
	s := 0.0
	for c := range x {
		d := x[c] - 0.9*y[c]
		s += d * d
	}
	return 1 / (1 + s)
}
func (skewPair) Symmetric() bool { return false }
func (skewPair) Name() string    { return "skewpair" }

// fusedKernels is every registered radial kernel plus the pairwise-only
// fallback kernel.
func fusedKernels() []Pairwise {
	ks := make([]Pairwise, 0, len(everyKernel())+1)
	for _, k := range everyKernel() {
		ks = append(ks, k)
	}
	return append(ks, skewPair{})
}

// fusedShapes covers the unroll/tail/chunk boundaries: tiny blocks, shapes
// straddling the 4-wide dot unroll, and shapes straddling the 64-entry
// fused chunk.
var fusedShapes = []struct{ rows, cols int }{
	{1, 1}, {2, 3}, {3, 5}, {4, 4}, {5, 2}, {7, 9}, {17, 33},
	{30, 64}, {31, 65}, {64, 63}, {100, 100},
}

// randIdx draws count indices into [0, n): independent random indices
// (duplicates included) or, every other draw on average, a consecutive run
// at a random offset — the two column shapes of the fused primitives
// (gathered skeleton panels and in-place leaf ranges).
func randIdx(rng *rand.Rand, n, count int) []int {
	idx := make([]int, count)
	if count <= n && rng.Intn(2) == 0 {
		lo := rng.Intn(n - count + 1)
		for i := range idx {
			idx[i] = lo + i
		}
		return idx
	}
	for i := range idx {
		idx[i] = rng.Intn(n)
	}
	return idx
}

// withZeros returns a copy of v with a deterministic pattern of zeros
// injected: a run of four (hits the all-zero quad path), alternating zeros
// (hits every axpyPair case), and a zero tail element.
func withZeros(v []float64) []float64 {
	w := append([]float64(nil), v...)
	for i := 0; i < len(w) && i < 4; i++ {
		w[i] = 0
	}
	for i := 5; i < len(w); i += 3 {
		w[i] = 0
	}
	if len(w) > 0 {
		w[len(w)-1] = 0
	}
	return w
}

func bitsEqual(t *testing.T, tag string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d want %d", tag, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d = %v (%#x) want %v (%#x)",
				tag, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// batchWidths are the right-hand-side counts of the batch suites.
var batchWidths = []int{1, 2, 3, 5, 8}

// randPanel returns a k-by-n column-major panel (row t is column t) of
// standard normal draws.
func randPanel(rng *rand.Rand, k, n int) *mat.Dense {
	p := mat.NewDense(k, n)
	for i := range p.Data {
		p.Data[i] = rng.NormFloat64()
	}
	return p
}

// panelMulAdd is the column-by-column oracle of the batch primitives:
// row t of c gains tile times row t of b through mat.MulVecAdd, or with
// trans through mat.MulTVecAdd.
func panelMulAdd(c, tile, b *mat.Dense, trans bool) {
	for t := range b.Rows {
		if trans {
			mat.MulTVecAdd(c.Row(t), tile, b.Row(t))
		} else {
			mat.MulVecAdd(c.Row(t), tile, b.Row(t))
		}
	}
}

// TestBlockMulAddBitwise pins the fused batch path (one tile-row evaluation
// per batch) against assemble-then-MulVecAdd per column, for every width of
// batchWidths.
func TestBlockMulAddBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	buf := mat.NewDense(0, 0)
	for _, d := range []int{2, 3, 5} {
		x := pointset.Cube(150, d, int64(d))
		y := pointset.Cube(130, d, int64(d+79))
		for _, k := range fusedKernels() {
			for _, sh := range fusedShapes {
				for _, nrhs := range batchWidths {
					rows := randIdx(rng, x.Len(), sh.rows)
					cols := randIdx(rng, y.Len(), sh.cols)
					b := randPanel(rng, nrhs, sh.cols)
					out := randPanel(rng, nrhs, sh.rows)
					want := out.Clone()
					panelMulAdd(want, NewBlockSeed(k, x, rows, y, cols), b, false)
					BlockMulAdd(out, k, x, rows, y, cols, b, buf)
					bitsEqual(t, k.Name(), out.Data, want.Data)
				}
			}
		}
	}
}

// TestBlockTMulAddBitwise pins the fused transposed batch path against
// assemble-then-MulTVecAdd per column, zero entries (a coincident point
// under a kernel that vanishes at r = 0 yields exact zeros) and zero
// multipliers included, for every width of batchWidths.
func TestBlockTMulAddBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	buf := mat.NewDense(0, 0)
	for _, d := range []int{2, 3, 5} {
		x := pointset.Cube(150, d, int64(d+40))
		for _, k := range fusedKernels() {
			for _, sh := range fusedShapes {
				for _, nrhs := range batchWidths {
					rows := randIdx(rng, x.Len(), sh.rows)
					cols := randIdx(rng, x.Len(), sh.cols)
					b := randPanel(rng, nrhs, sh.rows)
					copy(b.Row(0), withZeros(b.Row(0)))
					out := randPanel(rng, nrhs, sh.cols)
					want := out.Clone()
					panelMulAdd(want, NewBlockSeed(k, x, rows, x, cols), b, true)
					BlockTMulAdd(out, k, x, rows, x, cols, b, buf)
					bitsEqual(t, k.Name(), out.Data, want.Data)
				}
			}
		}
	}
}

// TestBlockMulAddTwinBitwise pins the single-evaluation batch twin against
// its two separate products, BlockMulAdd for the rows and BlockTMulAdd for
// the columns, bit for bit, for every kernel, coincident points (exact zero
// entries), zero multipliers, every width of batchWidths, and the AVX path
// on and off.
func TestBlockMulAddTwinBitwise(t *testing.T) {
	defer mat.SetSIMD(mat.SetSIMD(true))
	rng := rand.New(rand.NewSource(17))
	buf := mat.NewDense(0, 0)
	for _, simd := range []bool{true, false} {
		mat.SetSIMD(simd)
		for _, d := range []int{2, 3, 5} {
			x := pointset.Cube(150, d, int64(d+50))
			for _, k := range fusedKernels() {
				for _, sh := range fusedShapes {
					for _, nrhs := range batchWidths {
						rows := randIdx(rng, x.Len(), sh.rows)
						cols := randIdx(rng, x.Len(), sh.cols)
						bC, bR := randPanel(rng, nrhs, sh.cols), randPanel(rng, nrhs, sh.rows)
						copy(bR.Row(nrhs-1), withZeros(bR.Row(nrhs-1)))
						cR, cC := randPanel(rng, nrhs, sh.rows), randPanel(rng, nrhs, sh.cols)
						wantR, wantC := cR.Clone(), cC.Clone()
						BlockMulAdd(wantR, k, x, rows, x, cols, bC, buf)
						BlockTMulAdd(wantC, k, x, rows, x, cols, bR, buf)
						BlockMulAddTwin(cR, cC, k, x, rows, x, cols, bC, bR, buf)
						tag := fmt.Sprintf("%s simd=%v", k.Name(), simd)
						bitsEqual(t, tag+"/rows", cR.Data, wantR.Data)
						bitsEqual(t, tag+"/cols", cC.Data, wantC.Data)
					}
				}
			}
		}
	}
}

// TestBatchColumnsMatchWidthOne pins the columns of the fused batch
// products: at width 3, with ±0 multipliers in every column and ±Inf and NaN
// multipliers in two of them, every column of BlockMulAdd, BlockTMulAdd and
// BlockMulAddTwin must equal the width-1 call on that column bit for bit,
// NaN payloads included: both run the same code. Rows and columns share
// points, so the singular kernels produce exact zero entries; the
// accumulators start at +0.
func TestBatchColumnsMatchWidthOne(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	buf := mat.NewDense(0, 0)
	multipliers := func(n int, nonFinite bool) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		v = withZeros(v)
		for i := 2; i < n; i += 7 {
			v[i] = math.Copysign(0, -1)
		}
		if nonFinite {
			for i, x := range []float64{math.Inf(1), math.NaN(), math.Inf(-1)} {
				if j := 1 + 5*i; j < n {
					v[j] = x
				}
			}
		}
		return v
	}
	// batch runs the three batch products on the panels bC, bR.
	batch := func(k Pairwise, x *pointset.Points, rows, cols []int, bC, bR *mat.Dense) (cR, cC, tR, tC *mat.Dense) {
		cR, cC = mat.NewDense(bC.Rows, len(rows)), mat.NewDense(bR.Rows, len(cols))
		BlockMulAdd(cR, k, x, rows, x, cols, bC, buf)
		BlockTMulAdd(cC, k, x, rows, x, cols, bR, buf)
		tR, tC = mat.NewDense(bC.Rows, len(rows)), mat.NewDense(bR.Rows, len(cols))
		BlockMulAddTwin(tR, tC, k, x, rows, x, cols, bC, bR, buf)
		return cR, cC, tR, tC
	}
	row := func(p *mat.Dense, t int) *mat.Dense { return mat.NewDenseData(1, p.Cols, p.Row(t)) }
	x := pointset.Cube(150, 3, 60)
	for _, k := range fusedKernels() {
		for _, sh := range fusedShapes {
			rows := randIdx(rng, x.Len(), sh.rows)
			cols := randIdx(rng, x.Len(), sh.cols)
			copy(cols, rows) // coincident points: exact zero entries
			tag := fmt.Sprintf("%s %dx%d", k.Name(), sh.rows, sh.cols)

			bC, bR := mat.NewDense(3, sh.cols), mat.NewDense(3, sh.rows)
			for c := range 3 {
				copy(bC.Row(c), multipliers(sh.cols, c == 1))
				copy(bR.Row(c), multipliers(sh.rows, c == 2))
			}
			cR, cC, tR, tC := batch(k, x, rows, cols, bC, bR)
			for c := range 3 {
				oR, oC, oTR, oTC := batch(k, x, rows, cols, row(bC, c), row(bR, c))
				ctag := fmt.Sprintf("%s k=3 column %d", tag, c)
				bitsEqual(t, ctag+" BlockMulAdd", cR.Row(c), oR.Data)
				bitsEqual(t, ctag+" BlockTMulAdd", cC.Row(c), oC.Data)
				bitsEqual(t, ctag+" BlockMulAddTwin rows", tR.Row(c), oTR.Data)
				bitsEqual(t, ctag+" BlockMulAddTwin cols", tC.Row(c), oTC.Data)
			}
		}
	}
}

// TestApplyBlockBitwiseFused pins the fused BlockMulAdd at width 1, fed a
// gathered multiplier, against the seed streaming product ApplyBlock over the
// same index sets.
func TestApplyBlockBitwiseFused(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	buf := mat.NewDense(0, 0)
	for _, d := range []int{2, 3, 5} {
		x := pointset.Cube(140, d, int64(d+5))
		for _, k := range fusedKernels() {
			rows := randIdx(rng, x.Len(), 23)
			cols := randIdx(rng, x.Len(), 69)
			v := make([]float64, x.Len())
			for i := range v {
				v[i] = rng.NormFloat64()
			}
			got := make([]float64, x.Len())
			want := make([]float64, x.Len())
			ApplyBlock(k, x, rows, cols, v, want)
			vc := make([]float64, len(cols))
			for c, j := range cols {
				vc[c] = v[j]
			}
			prod := mat.NewDense(1, len(rows))
			BlockMulAdd(prod, k, x, rows, x, cols, mat.NewDenseData(1, len(cols), vc), buf)
			for r, i := range rows {
				got[i] += prod.Data[r]
			}
			bitsEqual(t, k.Name(), got, want)
		}
	}
}

// TestRowApplyBitwiseFused pins RowApply against the seed
// assemble-then-MulVecAdd path over the full index range: the chunked row
// dot keeps dot's grouping, so the results agree digit for digit, also when
// the last 64-entry chunk is shorter than the AVX dot threshold (n = 72,
// 136) while the whole row is not.
func TestRowApplyBitwiseFused(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, d := range []int{2, 3, 5} {
		for _, n := range []int{1, 3, 65, 72, 131, 136} {
			x := pointset.Cube(n, d, int64(10*d+n))
			all := make([]int, n)
			for i := range all {
				all[i] = i
			}
			v := make([]float64, n)
			for i := range v {
				v[i] = rng.NormFloat64()
			}
			for _, k := range fusedKernels() {
				for _, i := range []int{0, n / 2, n - 1} {
					want := make([]float64, 1)
					mat.MulVecAdd(want, NewBlockSeed(k, x, []int{i}, x, all), v)
					got := RowApply(k, x, i, v)
					if math.Float64bits(got) != math.Float64bits(want[0]) {
						t.Fatalf("%s d=%d n=%d row %d: RowApply %v want %v", k.Name(), d, n, i, got, want[0])
					}
				}
			}
		}
	}
}

// TestPanelDistBitwise pins the panel distance (panelDist) and the fused
// panel evaluation (panelEval, including the 3-D Coulomb reciprocals that
// skip the r² pass) against the seed per-entry loops, for d = 2, 3 and 5,
// lengths around the 4-point AVX step, the dispatch threshold and the
// 64-entry chunk, and every column shape: leaf-range runs read in place,
// gathered index sets with duplicates (r² = 0 against a row that is also a
// column), and permuted runs whose endpoints look consecutive. With SIMD off
// the scalar loops must cover every entry from the first.
func TestPanelDistBitwise(t *testing.T) {
	defer mat.SetSIMD(mat.SetSIMD(true))
	lengths := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 63, 64, 65, 125, 200}
	rng := rand.New(rand.NewSource(21))
	for _, simd := range []bool{true, false} {
		mat.SetSIMD(simd)
		for _, d := range []int{2, 3, 5} {
			x := pointset.Cube(260, d, int64(d+40))
			for _, L := range lengths {
				lo := rng.Intn(x.Len() - L + 1)
				run := make([]int, L)
				for t := range run {
					run[t] = lo + t
				}
				// A permuted run: consecutive values, first and last in
				// place, the middle swapped pairwise ([4,6,5,7] for L = 4).
				perm := append([]int(nil), run...)
				for t := 1; t+1 < L-1; t += 2 {
					perm[t], perm[t+1] = perm[t+1], perm[t]
				}
				gathered := randIdx(rng, x.Len(), L)
				if L > 1 {
					gathered[L-1] = gathered[0] // duplicate index
				}
				for _, cols := range [][]int{run, perm, gathered} {
					tag := fmt.Sprintf("simd=%v d=%d L=%d cols=%v", simd, d, L, cols[:min(L, 6)])
					buf := make([]float64, d*L)
					p := colPanel(x, cols, buf)
					// Rows: a column point (r² = 0 somewhere) and a random one.
					for _, i := range []int{cols[0], rng.Intn(x.Len())} {
						xi := x.Coords[i*d : i*d+d]
						want := make([]float64, L)
						for t, j := range cols {
							want[t] = seedDist2(x, i, x, j)
						}
						r2 := make([]float64, L)
						panelDist(r2, xi, p)
						bitsEqual(t, "dist "+tag, r2, want)
						for _, k := range everyKernel() {
							wantK := NewBlockSeed(k, x, []int{i}, x, cols).Data
							got := make([]float64, L)
							panelEval(k, got, make([]float64, L), xi, p)
							bitsEqual(t, k.Name()+" "+tag, got, wantK)
						}
					}
				}
			}
		}
	}
}
