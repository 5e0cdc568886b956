package mat

import (
	"math"
	"math/rand"
	"testing"
)

// Scalar Go transcriptions of the two ExpChunk bodies, one rounding per
// step of math.Exp's amd64 assembly: math.FMA stands for each fused
// instruction, and the float64 conversions keep the compiler from fusing the
// mul/add body. They hold for arguments in the fast range [-708, 709].
const (
	expLog2e = 1.4426950408889634073599246810018920
	expLn2U  = 0.69314718055966295651160180568695068359375
	expLn2L  = 0.28235290563031577122588448175013436025525412068e-12
)

// expTaylor holds 1/8!, 1/7!, …, 1/3!, 1/2, 1 in Horner order.
var expTaylor = [...]float64{2.4801587301587301587e-5, 1.9841269841269841270e-4,
	1.3888888888888888889e-3, 8.3333333333333333333e-3, 4.1666666666666666667e-2,
	1.6666666666666666667e-1, 0.5, 1.0}

// expReduce is the shared range reduction k = round(x·log2e), rounding
// half to even as CVTSD2SL does.
func expReduce(x float64) (k int32, kf float64) {
	k = int32(math.RoundToEven(expLog2e * x))
	return k, float64(k)
}

// expLdexp multiplies fr by 2^k from exponent bits, as the bodies do.
func expLdexp(fr float64, k int32) float64 {
	return fr * math.Float64frombits(uint64(k+0x3FF)<<52)
}

func expFMAGo(x float64) float64 {
	k, kf := expReduce(x)
	x = math.FMA(-kf, expLn2U, x)
	x = math.FMA(-kf, expLn2L, x)
	x *= 0.0625
	p := expTaylor[0]
	for _, c := range expTaylor[1:] {
		p = math.FMA(x, p, c)
	}
	x *= p
	for range 3 {
		x *= x + 2
	}
	return expLdexp(math.FMA(x, x+2, 1), k)
}

func expPlainGo(x float64) float64 {
	k, kf := expReduce(x)
	x -= float64(expLn2U * kf)
	x -= float64(expLn2L * kf)
	x *= 0.0625
	p := expTaylor[0]
	for _, c := range expTaylor[1:] {
		p = float64(p*x) + c
	}
	x *= p
	for range 4 {
		x *= x + 2
	}
	return expLdexp(x+1, k)
}

// expEdgeArgs returns the branch edges of math.Exp and of ExpChunk's fast
// range, each with its ulp neighbors: the range ends ±708 and 709, the
// overflow threshold 709.78, the underflow-to-zero end -745.13, ±0, NaN,
// ±Inf, and arguments whose x·log2e lands on or next to a half-integer, where
// the rounding of k ties.
func expEdgeArgs() []float64 {
	var x []float64
	near := func(v float64) {
		lo, hi := v, v
		x = append(x, v)
		for range 4 {
			lo, hi = math.Nextafter(lo, math.Inf(-1)), math.Nextafter(hi, math.Inf(1))
			x = append(x, lo, hi)
		}
	}
	for _, v := range []float64{-708, 708, 709, 7.09782712893384e+02, -745.1332191019412, -745.13321910194122, -708.3964185322641, 0, 1, -1} {
		near(v)
	}
	x = append(x, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		-math.MaxFloat64, math.MaxFloat64, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64)
	for j := -1080; j <= 1030; j++ {
		near((float64(j) + 0.5) / expLog2e)
	}
	return x
}

// expCheck evaluates x through ExpChunk in place, in chunks of n, and
// counts elements whose bits differ from math.Exp.
func expCheck(x []float64, n int) (mismatches int, first float64) {
	buf := make([]float64, n)
	for i := 0; i < len(x); i += n {
		c := buf[:min(n, len(x)-i)]
		copy(c, x[i:])
		ExpChunk(c, c)
		for t, v := range c {
			if math.Float64bits(v) != math.Float64bits(math.Exp(x[i+t])) {
				if mismatches == 0 {
					first = x[i+t]
				}
				mismatches++
			}
		}
	}
	return mismatches, first
}

// TestExpChunkDifferential pins ExpChunk to math.Exp bit for bit over more
// than 10⁷ arguments: uniform sweeps of the whole finite-result range, of
// [-708, 0] (every exp-family kernel argument) and of [-1, 1], random bit
// patterns (NaN, ±Inf, denormals, huge magnitudes), the branch edges of
// expEdgeArgs, and ragged lengths 0–67 evaluated in place. Run it under
// GODEBUG=cpu.fma=off too: math.Exp then takes its mul/add body, and the
// self-check must select the matching one.
func TestExpChunkDifferential(t *testing.T) {
	t.Logf("ExpChunk body: %s", ExpBody())
	rng := rand.New(rand.NewSource(17))
	x := make([]float64, 0, 1<<20)
	total := 0
	run := func(name string, gen func() float64, count int) {
		for count > 0 {
			x = x[:0]
			for range min(count, cap(x)) {
				x = append(x, gen())
			}
			count -= len(x)
			total += len(x)
			if bad, first := expCheck(x, 64); bad != 0 {
				t.Fatalf("%s: %d mismatches against math.Exp, first at x=%v (%#x)", name, bad, first, math.Float64bits(first))
			}
		}
	}
	run("[-746, 710]", func() float64 { return -746 + 1456*rng.Float64() }, 4_000_000)
	run("[-708, 0]", func() float64 { return -708 * rng.Float64() }, 3_000_000)
	run("[-1, 1]", func() float64 { return 2*rng.Float64() - 1 }, 1_000_000)
	run("bit patterns", func() float64 { return math.Float64frombits(rng.Uint64()) }, 2_000_000)
	edges := expEdgeArgs()
	for _, n := range []int{4, 5, 64} {
		if bad, first := expCheck(edges, n); bad != 0 {
			t.Fatalf("edges (chunk %d): %d mismatches, first at x=%v", n, bad, first)
		}
	}
	total += 3 * len(edges)
	// Ragged lengths with an out-of-range lane at every position of a
	// quad, around the quad step and the tail.
	for n := 0; n <= 67; n++ {
		for bad := -1; bad < min(n, 8); bad++ {
			v := make([]float64, n)
			for i := range v {
				v[i] = -40 * rng.Float64()
			}
			if bad >= 0 {
				v[bad] = -750
			}
			got := append([]float64(nil), v...)
			ExpChunk(got, got)
			for i := range v {
				if math.Float64bits(got[i]) != math.Float64bits(math.Exp(v[i])) {
					t.Fatalf("n=%d bad=%d: element %d = %v want %v", n, bad, i, got[i], math.Exp(v[i]))
				}
			}
			total += n
		}
	}
	if total < 10_000_000 {
		t.Fatalf("checked %d arguments, want at least 10⁷", total)
	}
	t.Logf("%d arguments, 0 mismatches", total)
}

// TestExpBodiesMatchTranscriptions checks both AVX bodies — including the
// one this host does not select — against their scalar Go transcriptions,
// checks the transcription of the selected body against math.Exp, and
// checks that each body stops at the first quad with an out-of-range lane.
func TestExpBodiesMatchTranscriptions(t *testing.T) {
	if !SIMDAvailable() {
		t.Skip("no AVX on this machine")
	}
	type expBody struct {
		name string
		body func(dst, x []float64) int
		ref  func(float64) float64
	}
	bodies := []expBody{{"plain", expPlainBody, expPlainGo}}
	if hasFMA() {
		bodies = append(bodies, expBody{"fma", expFMABody, expFMAGo})
	}
	rng := rand.New(rand.NewSource(23))
	x := make([]float64, 1<<16)
	got := make([]float64, len(x))
	for _, b := range bodies {
		for round := range 16 {
			for i := range x {
				x[i] = -708 + 1417*rng.Float64()
				if round%2 == 1 {
					x[i] = 2*rng.Float64() - 1
				}
			}
			if n := b.body(got, x); n != len(x) {
				t.Fatalf("%s body stopped at %d of %d in-range arguments", b.name, n, len(x))
			}
			for i, v := range x {
				if want := b.ref(v); math.Float64bits(got[i]) != math.Float64bits(want) {
					t.Fatalf("%s body: x=%v gives %v, transcription %v", b.name, v, got[i], want)
				}
			}
		}
		for _, bad := range []float64{-708.5, 709.5, math.NaN(), math.Inf(-1), math.Inf(1)} {
			v := []float64{-1, -2, -3, -4, -5, -6, bad, -8, -9, -10, -11, -12}
			if n := b.body(make([]float64, len(v)), v); n != 4 {
				t.Fatalf("%s body with %v in the second quad wrote %d elements, want 4", b.name, bad, n)
			}
		}
	}
	ref := map[string]func(float64) float64{"fma": expFMAGo, "plain": expPlainGo}[ExpBody()]
	if ref == nil {
		return
	}
	for range 1 << 18 {
		v := -708 + 1417*rng.Float64()
		if math.Float64bits(ref(v)) != math.Float64bits(math.Exp(v)) {
			t.Fatalf("selected %s transcription differs from math.Exp at x=%v", ExpBody(), v)
		}
	}
}

// TestExpSelfCheckProbes pins the selection premise: the self-check probes
// hold arguments on which the FMA and mul/add bodies round differently, so
// the body that does not match this process's math.Exp cannot pass.
func TestExpSelfCheckProbes(t *testing.T) {
	probes := expProbes()
	if len(probes)%4 != 0 {
		t.Fatalf("%d probes, want a multiple of 4", len(probes))
	}
	differ := 0
	for _, v := range probes {
		if v < -708 || v > 709 {
			t.Fatalf("probe %v outside the fast range", v)
		}
		if math.Float64bits(expFMAGo(v)) != math.Float64bits(expPlainGo(v)) {
			differ++
		}
	}
	if differ < 8 {
		t.Fatalf("only %d probes tell the FMA and mul/add bodies apart", differ)
	}
	if SIMDAvailable() && ExpBody() == "scalar" {
		t.Fatalf("AVX host but neither ExpChunk body passed the self-check")
	}
}
