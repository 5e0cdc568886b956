// Package kernel defines the kernel functions evaluated between point pairs
// and the blocked batch-assembly routines that the construction, nearfield,
// and on-the-fly code paths share.
//
// The paper accelerates kernel evaluation with SIMD intrinsics (§III-C);
// here the equivalent substrate is cache-blocked assembly over contiguous
// coordinate panels with fused distance/kernel inner loops, an AVX
// distance body (plus the Coulomb kernels' reciprocal) for the common 3-D
// case, and a 4-lane exp (mat.ExpChunk) for the exp-family kernels.
package kernel

import (
	"fmt"
	"math"
	"strings"

	"h2ds/internal/mat"
	"h2ds/internal/pointset"
)

// Pairwise is the general kernel interface: any (possibly unsymmetric)
// function K(x, y) of two d-dimensional points. The H² machinery accepts
// any Pairwise kernel; radial kernels additionally satisfy Kernel and get
// fused distance/evaluation assembly loops.
type Pairwise interface {
	// EvalPair returns K(x, y).
	EvalPair(x, y []float64) float64
	// Symmetric reports whether K(x, y) == K(y, x) for all inputs; the H²
	// construction shares bases and stores one coupling triangle when true.
	Symmetric() bool
	// Name returns a short identifier ("coulomb", "gaussian", ...).
	Name() string
}

// BlockAssembler is an optional Pairwise extension for kernels whose values
// come from a backing store rather than a coordinate formula (entry oracles:
// internal/oracle). Assemble consults it before its radial/pairwise
// dispatch, so such kernels fetch a whole submatrix in one call instead of
// len(rows)·len(cols) EvalPair round trips. AssembleBlock receives dst
// already shaped len(rows)×len(cols) and reports whether it handled the
// block; false falls back to the pairwise loop.
type BlockAssembler interface {
	AssembleBlock(dst *mat.Dense, x *pointset.Points, rows []int, y *pointset.Points, cols []int) bool
}

// Kernel is a radial, symmetric kernel function K(x, y) = f(||x-y||₂) on
// d-dimensional points.
//
// All kernels in this package depend on the points only through the
// Euclidean distance, so implementations provide EvalDist and the assembly
// loops compute the distance once per pair.
type Kernel interface {
	Pairwise
	// EvalDist returns K at distance r >= 0.
	EvalDist(r float64) float64
}

// Eval evaluates k between two coordinate slices of equal length.
func Eval(k Kernel, x, y []float64) float64 {
	return k.EvalDist(pointset.Dist(x, y))
}

// Coulomb is the kernel 1/r used for electrostatics and gravitation. The
// singular diagonal follows the fast-summation convention K(x, x) = 0
// (self-interaction excluded), matching what an FMM-style potential sum
// computes.
type Coulomb struct{}

// EvalDist implements Kernel.
func (Coulomb) EvalDist(r float64) float64 {
	if r == 0 {
		return 0
	}
	return 1 / r
}

// EvalPair implements Pairwise.
func (k Coulomb) EvalPair(x, y []float64) float64 { return k.EvalDist(pointset.Dist(x, y)) }

// Symmetric implements Pairwise; radial kernels are symmetric.
func (Coulomb) Symmetric() bool { return true }

// Name implements Kernel.
func (Coulomb) Name() string { return "coulomb" }

// CoulombCubed is the kernel 1/r³ from the paper's generality study (Fig 9),
// with the same zero-diagonal convention as Coulomb.
type CoulombCubed struct{}

// EvalDist implements Kernel.
func (CoulombCubed) EvalDist(r float64) float64 {
	if r == 0 {
		return 0
	}
	return 1 / (r * r * r)
}

// EvalPair implements Pairwise.
func (k CoulombCubed) EvalPair(x, y []float64) float64 { return k.EvalDist(pointset.Dist(x, y)) }

// Symmetric implements Pairwise; radial kernels are symmetric.
func (CoulombCubed) Symmetric() bool { return true }

// Name implements Kernel.
func (CoulombCubed) Name() string { return "coulomb3" }

// The exp-family kernels (Exponential, Gaussian, Matern32, Matern52) each
// keep their formula in one place, shared by EvalDist and the chunk loops of
// evalChunk: the exponent (arg, or the Matérn scaled distance a) and, for
// Matérn, the prefactor with its a > 700 guard. Parameter defaults resolve
// through withDefaults, once per chunk on the chunk path. The chunk loops
// write the exponents into the chunk and exponentiate it with mat.ExpChunk,
// which is math.Exp bit for bit, so both paths give the same values. One
// exception: in 3-D, Exponential's exponent -r comes from the fused distance
// pass mat.NegSqrtDist3Chunk (see panelEval); TestExponentialTilesFusedBitwise
// pins it to EvalDist.

// Exponential is the kernel exp(-r).
type Exponential struct{}

// arg is the exponent: K(r) = exp(arg(r)).
func (Exponential) arg(r float64) float64 { return -r }

// EvalDist implements Kernel.
func (k Exponential) EvalDist(r float64) float64 { return math.Exp(k.arg(r)) }

// EvalPair implements Pairwise.
func (k Exponential) EvalPair(x, y []float64) float64 { return k.EvalDist(pointset.Dist(x, y)) }

// Symmetric implements Pairwise; radial kernels are symmetric.
func (Exponential) Symmetric() bool { return true }

// Name implements Kernel.
func (Exponential) Name() string { return "exp" }

// Gaussian is the kernel exp(-r²/Scale), with Scale 0 meaning 0.1, the
// paper's Fig 9 setting.
type Gaussian struct {
	Scale float64
}

// withDefaults returns g with a zero Scale replaced by 0.1.
func (g Gaussian) withDefaults() Gaussian {
	if g.Scale == 0 {
		g.Scale = 0.1
	}
	return g
}

// arg is the exponent -r²/Scale of g with its defaults resolved.
func (g Gaussian) arg(r float64) float64 { return -r * r / g.Scale }

// EvalDist implements Kernel.
func (g Gaussian) EvalDist(r float64) float64 { return math.Exp(g.withDefaults().arg(r)) }

// EvalPair implements Pairwise.
func (g Gaussian) EvalPair(x, y []float64) float64 { return g.EvalDist(pointset.Dist(x, y)) }

// Symmetric implements Pairwise; radial kernels are symmetric.
func (Gaussian) Symmetric() bool { return true }

// Name implements Kernel.
func (Gaussian) Name() string { return "gaussian" }

// maternExp returns pre·e for e = exp(-a), or 0 where a > 700: there exp(-a)
// underflows, and an infinite a would make Inf·0 = NaN.
func maternExp(a, pre, e float64) float64 {
	if a > 700 {
		return 0
	}
	return pre * e
}

// Matern32 is the Matérn-3/2 kernel (1 + a)·exp(-a) with a = √3·r/ℓ, a
// common Gaussian-process covariance; Length 0 means 1. Included as an
// extension beyond the paper's four kernels to exercise kernel generality
// further.
type Matern32 struct {
	Length float64
}

// withDefaults returns m with a zero Length replaced by 1.
func (m Matern32) withDefaults() Matern32 {
	if m.Length == 0 {
		m.Length = 1
	}
	return m
}

// a is the scaled distance √3·r/ℓ of m with its defaults resolved.
func (m Matern32) a(r float64) float64 { return math.Sqrt(3) * r / m.Length }

// matern32 is the kernel value at scaled distance a, given e = exp(-a).
func matern32(a, e float64) float64 { return maternExp(a, 1+a, e) }

// EvalDist implements Kernel.
func (m Matern32) EvalDist(r float64) float64 {
	a := m.withDefaults().a(r)
	return matern32(a, math.Exp(-a))
}

// EvalPair implements Pairwise.
func (m Matern32) EvalPair(x, y []float64) float64 { return m.EvalDist(pointset.Dist(x, y)) }

// Symmetric implements Pairwise; radial kernels are symmetric.
func (Matern32) Symmetric() bool { return true }

// Name implements Kernel.
func (Matern32) Name() string { return "matern32" }

// Matern52 is the Matérn-5/2 kernel (1 + a + a²/3)·exp(-a) with
// a = √5·r/ℓ, the twice-differentiable sibling of Matern32; Length 0 means 1.
type Matern52 struct {
	Length float64
}

// withDefaults returns m with a zero Length replaced by 1.
func (m Matern52) withDefaults() Matern52 {
	if m.Length == 0 {
		m.Length = 1
	}
	return m
}

// a is the scaled distance √5·r/ℓ of m with its defaults resolved.
func (m Matern52) a(r float64) float64 { return math.Sqrt(5) * r / m.Length }

// matern52 is the kernel value at scaled distance a, given e = exp(-a).
func matern52(a, e float64) float64 { return maternExp(a, 1+a+a*a/3, e) }

// EvalDist implements Kernel.
func (m Matern52) EvalDist(r float64) float64 {
	a := m.withDefaults().a(r)
	return matern52(a, math.Exp(-a))
}

// EvalPair implements Pairwise.
func (m Matern52) EvalPair(x, y []float64) float64 { return m.EvalDist(pointset.Dist(x, y)) }

// Symmetric implements Pairwise; radial kernels are symmetric.
func (Matern52) Symmetric() bool { return true }

// Name implements Kernel.
func (Matern52) Name() string { return "matern52" }

// InverseMultiquadric is the kernel 1/√(r² + C²), a smooth-everywhere
// (C > 0) relative of the Coulomb kernel popular in RBF interpolation.
type InverseMultiquadric struct {
	C float64
}

// EvalDist implements Kernel.
func (k InverseMultiquadric) EvalDist(r float64) float64 {
	c := k.C
	if c == 0 {
		c = 1
	}
	return 1 / math.Sqrt(r*r+c*c)
}

// EvalPair implements Pairwise.
func (k InverseMultiquadric) EvalPair(x, y []float64) float64 {
	return k.EvalDist(pointset.Dist(x, y))
}

// Symmetric implements Pairwise; radial kernels are symmetric.
func (InverseMultiquadric) Symmetric() bool { return true }

// Name implements Kernel.
func (InverseMultiquadric) Name() string { return "imq" }

// ThinPlate is the thin-plate spline kernel r²·log r (with the usual
// K(x, x) = 0 continuation). Unlike every other kernel here it is
// sign-changing and grows with distance — a stress test for the
// sign-oblivious parts of the pipeline (sampling, pivoted factorization).
type ThinPlate struct{}

// EvalDist implements Kernel.
func (ThinPlate) EvalDist(r float64) float64 {
	if r == 0 {
		return 0
	}
	return r * r * math.Log(r)
}

// EvalPair implements Pairwise.
func (k ThinPlate) EvalPair(x, y []float64) float64 { return k.EvalDist(pointset.Dist(x, y)) }

// Symmetric implements Pairwise; radial kernels are symmetric.
func (ThinPlate) Symmetric() bool { return true }

// Name implements Kernel.
func (ThinPlate) Name() string { return "thinplate" }

// registry maps harness names to kernel constructors with their standard
// parameters (the paper's settings where it fixes one). registryNames keeps
// the presentation order for help text and error messages.
var (
	registry = map[string]func() Kernel{
		"coulomb":   func() Kernel { return Coulomb{} },
		"coulomb3":  func() Kernel { return CoulombCubed{} },
		"exp":       func() Kernel { return Exponential{} },
		"gaussian":  func() Kernel { return Gaussian{Scale: 0.1} },
		"matern32":  func() Kernel { return Matern32{Length: 1} },
		"matern52":  func() Kernel { return Matern52{Length: 1} },
		"imq":       func() Kernel { return InverseMultiquadric{C: 1} },
		"thinplate": func() Kernel { return ThinPlate{} },
	}
	registryNames = []string{"coulomb", "coulomb3", "exp", "gaussian",
		"matern32", "matern52", "imq", "thinplate"}
)

// Names returns the registered kernel names in presentation order. Command
// flag help derives its kernel list from this, so the binaries stay in sync
// with the registry.
func Names() []string { return append([]string(nil), registryNames...) }

// Named returns the kernel for a harness name. It returns false for unknown
// names.
func Named(name string) (Kernel, bool) {
	mk, ok := registry[name]
	if !ok {
		return nil, false
	}
	return mk(), true
}

// ByName is the error-reporting form of Named shared by the command-line
// frontends: unknown names produce an error that lists every valid kernel.
func ByName(name string) (Kernel, error) {
	k, ok := Named(name)
	if !ok {
		return nil, fmt.Errorf("kernel: unknown kernel %q (valid: %s)",
			name, strings.Join(registryNames, ", "))
	}
	return k, nil
}

// Assemble fills dst (reshaped to len(rows) x len(cols)) with the kernel
// block K(X[rows], Y[cols]). rows and cols index into x and y respectively.
// dst is returned for convenience. Radial kernels take the fused
// distance/evaluation fast paths; general Pairwise kernels use EvalPair.
func Assemble(dst *mat.Dense, pk Pairwise, x *pointset.Points, rows []int, y *pointset.Points, cols []int) *mat.Dense {
	m, n := len(rows), len(cols)
	dst.Reshape(m, n)
	if ba, ok := pk.(BlockAssembler); ok && ba.AssembleBlock(dst, x, rows, y, cols) {
		return dst
	}
	k, radial := pk.(Kernel)
	if !radial {
		assemblePair(dst, pk, x, rows, y, cols)
		return dst
	}
	assembleFused(dst, k, x, rows, y, cols)
	return dst
}

// NewBlock allocates and assembles the kernel block K(X[rows], Y[cols]).
func NewBlock(k Pairwise, x *pointset.Points, rows []int, y *pointset.Points, cols []int) *mat.Dense {
	return Assemble(mat.NewDense(0, 0), k, x, rows, y, cols)
}

// assembleFused fills the tile through the fused chunk machinery, one
// 64-column chunk at a time: the chunk's coordinate panel is resolved once
// (in place for a consecutive run, otherwise gathered into a stack buffer)
// and every row evaluates against it in one panelEval pass straight into
// the destination row. Per the bitwise contracts of panelDist and
// evalChunk, every entry is bit-identical to the per-entry EvalDist loops —
// only the interface-call count and the cache behavior change.
func assembleFused(dst *mat.Dense, k Kernel, x *pointset.Points, rows []int, y *pointset.Points, cols []int) {
	d := x.Dim
	n := len(cols)
	var r2 [fusedChunk]float64
	var stack [fusedChunk * 4]float64
	buf := stack[:]
	if d*fusedChunk > len(buf) {
		buf = make([]float64, d*fusedChunk)
	}
	for b0 := 0; b0 < n; b0 += fusedChunk {
		b1 := min(b0+fusedChunk, n)
		p := colPanel(y, cols[b0:b1], buf)
		for a, i := range rows {
			panelEval(k, dst.Row(a)[b0:b1], r2[:], x.Coords[i*d:i*d+d], p)
		}
	}
}

// assemblePair is the generic path for non-radial kernels.
func assemblePair(dst *mat.Dense, k Pairwise, x *pointset.Points, rows []int, y *pointset.Points, cols []int) {
	d := x.Dim
	for a, i := range rows {
		xi := x.Coords[i*d : i*d+d]
		out := dst.Row(a)
		for b, j := range cols {
			out[b] = k.EvalPair(xi, y.Coords[j*d:j*d+d])
		}
	}
}

// RowApply computes one exact row of the kernel matrix-vector product:
// it returns Σ_j K(x_i, x_j) v[j] over all points j. Used by the 12-row
// relative-error estimator (paper §IV) and by tests. It evaluates the row a
// 64-entry chunk at a time and reduces it in mat's dot grouping, with every
// point as the column set, whose panel is the whole coordinate array read in
// place.
func RowApply(k Pairwise, x *pointset.Points, i int, v []float64) float64 {
	d := x.Dim
	var r2, kb [fusedChunk]float64
	return newEvaluator(k).rowDot(x.Coords[i*d:i*d+d], x.Coords, v[:x.Len()], &r2, &kb)
}
