// Package core implements the paper's primary contribution: H² hierarchical
// matrices with nested bases, built either by the new data-driven sampling
// method (hierarchical anchor-net Nyström + interpolative decomposition,
// §II-A) or by the tensor-grid Chebyshev interpolation baseline (§I-B2),
// applied to vectors with the five-sweep parallel matvec of Algorithm 2 in
// either the normal memory mode (all coupling/nearfield blocks stored) or
// the on-the-fly mode (blocks regenerated from indices at application time,
// §II-B).
//
// Any kernel.Pairwise kernel is accepted. Symmetric kernels (all radial
// kernels in internal/kernel) share row and column bases (V = U, W = R)
// and store one coupling triangle; unsymmetric kernels get the paper's
// general formulation with separate column-side generators and directed
// coupling storage.
package core

import (
	"fmt"
	"math"

	"h2ds/internal/interp"
	"h2ds/internal/sample"
	"h2ds/internal/tree"
)

// BasisKind selects the construction method.
type BasisKind int

const (
	// DataDriven is the paper's new method: hierarchical sampling followed
	// by per-node interpolative decompositions of kernel submatrices.
	DataDriven BasisKind = iota
	// Interpolation is the tensor-grid Chebyshev baseline.
	Interpolation
)

// String implements fmt.Stringer.
func (k BasisKind) String() string {
	switch k {
	case DataDriven:
		return "data-driven"
	case Interpolation:
		return "interpolation"
	default:
		return fmt.Sprintf("BasisKind(%d)", int(k))
	}
}

// MemoryMode selects how coupling and nearfield blocks are handled.
type MemoryMode int

const (
	// Normal stores every coupling and nearfield block at construction
	// time (the conventional hierarchical-matrix approach).
	Normal MemoryMode = iota
	// OnTheFly stores only index sets; blocks are assembled into
	// per-worker scratch during each matvec and discarded (§II-B).
	OnTheFly
	// Hybrid stores the most application-cost-per-byte-effective blocks up
	// to Config.StorageBudget bytes at construction time and evaluates the
	// rest on the fly — a continuum between Normal and OnTheFly that a
	// serving layer's memory budget can tune.
	Hybrid
)

// String implements fmt.Stringer.
func (m MemoryMode) String() string {
	switch m {
	case Normal:
		return "normal"
	case OnTheFly:
		return "on-the-fly"
	case Hybrid:
		return "hybrid"
	default:
		return fmt.Sprintf("MemoryMode(%d)", int(m))
	}
}

// Config selects and tunes a construction. The zero value requests a
// data-driven, normal-memory build at the default tolerance.
type Config struct {
	Kind BasisKind
	Mode MemoryMode

	// Tol is the target relative accuracy (default 1e-8, the paper's
	// standard setting). For the data-driven method it is the ID truncation
	// tolerance; for interpolation it calibrates the grid size.
	Tol float64

	// RelTol, when positive, requests an error-controlled build (the
	// Cai–Huang–Chow–Xi formalization of the paper's construction): it
	// overrides Tol as the accuracy target, the anchor-net sample size is
	// derived from the tolerance via the interpolation calibration
	// (RelTolSampleBudget), per-node ranks fall out of the ID truncation at
	// the tolerance rather than any fixed rank parameter, and Build finishes
	// with an a-posteriori sampled error estimate recorded in
	// BuildStats.EstRelErr. Must be in (0, 1); zero selects the
	// fixed-parameter build driven by Tol/SampleBudget.
	RelTol float64

	// SampleBudget is the per-node sample size m for the data-driven
	// method; 0 derives it from Tol and the dimension.
	SampleBudget int

	// StorageBudget caps the bytes spent on stored coupling/nearfield
	// blocks in Hybrid mode (ignored otherwise). Blocks are selected
	// greedily by assembly-savings-per-byte, top tree levels first; the
	// remainder is evaluated on the fly. 0 stores nothing (pure on-the-fly
	// evaluation with hybrid bookkeeping).
	StorageBudget int64

	// LeafSize caps points per leaf (0 = tree.DefaultLeafSize).
	LeafSize int

	// Eta is the admissibility parameter (0 = tree.DefaultEta, the paper's
	// 0.7).
	Eta float64

	// Workers bounds parallelism for construction and matvec
	// (0 = GOMAXPROCS).
	Workers int

	// Sampler picks the point sampler for the data-driven method
	// (nil = sample.AnchorNet).
	Sampler sample.Sampler

	// Cache, when non-nil, consults and feeds a construction cache, the one
	// way to share the kernel-independent half of a data-driven build — the
	// tree and the Algorithm 1 hierarchy — across builds over the same
	// points (the paper's sampling amortization, §VI-A). Before building,
	// the point geometry and the tree/sampling parameters are fingerprinted;
	// a hit reuses the cached tree and hierarchy (observable as
	// Phases.CacheHit with SampleNS == 0) and a miss inserts the freshly
	// built pair. Interpolation builds neither consult nor feed it. The
	// registry shares one cache across tenants so geometries repeated under
	// different kernels or tolerances skip Algorithm 1 entirely.
	Cache *BuildCache
}

// withDefaults returns cfg with zero fields resolved.
func (cfg Config) withDefaults(dim int) Config {
	if cfg.RelTol > 0 {
		// Error-controlled build: the tolerance is the single knob. It
		// replaces Tol as the truncation/calibration target, and the sample
		// budget default comes from the tolerance-rank calibration instead of
		// the fixed-parameter table.
		cfg.Tol = cfg.RelTol
		if cfg.SampleBudget <= 0 {
			cfg.SampleBudget = RelTolSampleBudget(cfg.RelTol, dim)
		}
	}
	if cfg.Tol <= 0 {
		cfg.Tol = 1e-8
	}
	if cfg.LeafSize <= 0 {
		cfg.LeafSize = tree.DefaultLeafSize
	}
	if cfg.Eta <= 0 {
		cfg.Eta = tree.DefaultEta
	}
	if cfg.Sampler == nil {
		cfg.Sampler = sample.AnchorNet{}
	}
	if cfg.SampleBudget <= 0 {
		cfg.SampleBudget = DefaultSampleBudget(cfg.Tol, dim)
	}
	return cfg
}

// DefaultSampleBudget returns the per-node sample size m used when the
// caller does not set one: it grows with the requested accuracy (more
// digits need larger surrogate farfields) and mildly with the dimension.
// The calibration sweep behind these constants is recorded in
// EXPERIMENTS.md.
func DefaultSampleBudget(tol float64, dim int) int {
	if tol <= 0 {
		tol = 1e-8
	}
	digits := -math.Log10(tol)
	if digits < 1 {
		digits = 1
	}
	m := 16 + 14*digits
	if dim > 3 {
		m *= 1 + 0.4*float64(dim-3)
	}
	return int(math.Ceil(m))
}

// RelTolSampleBudget derives the per-node anchor-net size for an
// error-controlled (RelTol) build by reusing the interpolation calibration:
// interp.PFromTol gives the points-per-direction p that reaches the
// tolerance at the default separation, a well-separated interaction in d
// dimensions then has numerical rank on the order of the boundary grid
// p^(d-1), and the sample set must oversample that rank so the ID
// truncation — not the sample size — decides each node's rank. The
// boundary-grid exponent is capped at two (the 3-D surface case): the
// anchor net is a low-discrepancy lattice whose coverage does not degrade
// with dimension, so beyond 3-D the fixed-parameter growth rule is the
// better model and the result never falls below DefaultSampleBudget.
func RelTolSampleBudget(reltol float64, dim int) int {
	p := interp.PFromTol(reltol)
	d := dim
	if d > 3 {
		d = 3
	}
	r := 1
	for i := 0; i < d-1; i++ {
		r *= p
	}
	m := 2*r + 10
	if def := DefaultSampleBudget(reltol, dim); m < def {
		m = def
	}
	return m
}
