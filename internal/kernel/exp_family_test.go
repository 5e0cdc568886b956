package kernel

import (
	"fmt"
	"math/rand"
	"testing"

	"h2ds/internal/mat"
	"h2ds/internal/pointset"
)

// expFamily lists the exp-family kernels (the mat.ExpChunk users) with
// parameters that reach every branch: the registry settings, zero values
// that resolve through withDefaults, a Gaussian narrow enough that most
// exponents fall below the ExpChunk fast range (scalar fallback lanes), and
// a Matérn length short enough that far entries hit the a > 700 guard.
func expFamily() []Kernel {
	return []Kernel{
		Exponential{}, Gaussian{Scale: 0.1}, Gaussian{}, Gaussian{Scale: 2e-4},
		Matern32{Length: 1}, Matern32{}, Matern32{Length: 1e-3},
		Matern52{Length: 1}, Matern52{}, Matern52{Length: 1e-3},
	}
}

// spreadCube is a cube point set stretched by scale, so exponents span
// from 0 to far outside [-708, 709].
func spreadCube(n, d int, seed int64, scale float64) *pointset.Points {
	p := pointset.Cube(n, d, seed)
	for i := range p.Coords {
		p.Coords[i] *= scale
	}
	return p
}

// TestExpFamilyTilesBitwise pins every exp-family tile of the fused paths —
// Assemble, BlockMulAdd, BlockTMulAdd and BlockMulAddTwin — against the
// per-entry seed oracle (NewBlockSeed, then the matching mat product per
// panel column), with the AVX path on and off, for d = 2, 3 and 5, unit and
// stretched point sets, zero multipliers, and shapes around the 4-lane step
// and the 64-entry chunk.
func TestExpFamilyTilesBitwise(t *testing.T) {
	defer mat.SetSIMD(mat.SetSIMD(true))
	t.Logf("ExpChunk body: %s", mat.ExpBody())
	rng := rand.New(rand.NewSource(31))
	shapes := []struct{ rows, cols int }{{1, 1}, {3, 5}, {4, 8}, {7, 9}, {17, 63}, {9, 64}, {10, 65}, {33, 130}}
	buf := mat.NewDense(0, 0)
	for _, simd := range []bool{true, false} {
		mat.SetSIMD(simd)
		for _, d := range []int{2, 3, 5} {
			for _, scale := range []float64{1, 600} {
				x := spreadCube(200, d, int64(d), scale)
				for _, k := range expFamily() {
					for _, sh := range shapes {
						tag := fmt.Sprintf("%s%+v simd=%v d=%d scale=%v %dx%d", k.Name(), k, simd, d, scale, sh.rows, sh.cols)
						rows, cols := randIdx(rng, x.Len(), sh.rows), randIdx(rng, x.Len(), sh.cols)
						tile := NewBlockSeed(k, x, rows, x, cols)
						bitsEqual(t, tag+" Assemble", NewBlock(k, x, rows, x, cols).Data, tile.Data)

						b, c := randPanel(rng, 3, sh.cols), randPanel(rng, 3, sh.rows)
						wantC := c.Clone()
						panelMulAdd(wantC, tile, b, false)
						BlockMulAdd(c, k, x, rows, x, cols, b, buf)
						bitsEqual(t, tag+" BlockMulAdd", c.Data, wantC.Data)

						bt, ct := randPanel(rng, 3, sh.rows), randPanel(rng, 3, sh.cols)
						copy(bt.Row(0), withZeros(bt.Row(0)))
						wantCT := ct.Clone()
						panelMulAdd(wantCT, tile, bt, true)
						BlockTMulAdd(ct, k, x, rows, x, cols, bt, buf)
						bitsEqual(t, tag+" BlockTMulAdd", ct.Data, wantCT.Data)

						tR, tC := randPanel(rng, 3, sh.rows), randPanel(rng, 3, sh.cols)
						wantR, wantT := tR.Clone(), tC.Clone()
						panelMulAdd(wantR, tile, b, false)
						panelMulAdd(wantT, tile, bt, true)
						BlockMulAddTwin(tR, tC, k, x, rows, x, cols, b, bt, buf)
						bitsEqual(t, tag+" twin rows", tR.Data, wantR.Data)
						bitsEqual(t, tag+" twin cols", tC.Data, wantT.Data)
					}
				}
			}
		}
	}
}

// TestExponentialTilesFusedBitwise pins the 3-D Exponential tiles, whose
// exponent comes from mat.NegSqrtDist3Chunk, against per-entry EvalDist:
// Assemble over every column count 0..67 (every tail of the 4-point step,
// the dispatch threshold and the 64-entry chunk) and panelEval on the same
// panels, with the AVX path on and off, and rows that coincide with a column
// point, where the exponent is -0 and the entry exactly 1.
func TestExponentialTilesFusedBitwise(t *testing.T) {
	defer mat.SetSIMD(mat.SetSIMD(true))
	k := Exponential{}
	rng := rand.New(rand.NewSource(47))
	x := pointset.Cube(300, 3, 47)
	for _, simd := range []bool{true, false} {
		mat.SetSIMD(simd)
		for L := 0; L <= 67; L++ {
			cols := randIdx(rng, x.Len(), L)
			rows := []int{rng.Intn(x.Len()), rng.Intn(x.Len())}
			if L > 0 {
				rows = append(rows, cols[0], cols[L-1]) // coincident points
			}
			want := make([]float64, len(rows)*L)
			for a, i := range rows {
				for b, j := range cols {
					want[a*L+b] = k.EvalDist(pointset.Dist(x.Coords[3*i:3*i+3], x.Coords[3*j:3*j+3]))
				}
			}
			tag := fmt.Sprintf("simd=%v L=%d", simd, L)
			bitsEqual(t, tag+" Assemble", NewBlock(k, x, rows, x, cols).Data, want)
			p := colPanel(x, cols, make([]float64, 3*L))
			for a, i := range rows {
				got := make([]float64, L)
				panelEval(k, got, make([]float64, L), x.Coords[3*i:3*i+3], p)
				bitsEqual(t, tag+" panelEval", got, want[a*L:(a+1)*L])
			}
			if L > 0 && (want[2*L] != 1 || want[3*L+L-1] != 1) {
				t.Fatalf("%s: coincident entries %v, %v; want 1", tag, want[2*L], want[3*L+L-1])
			}
		}
	}
}
