package registry

import (
	"context"
	"fmt"
	"math"
	"os"
	"regexp"
	"strings"

	"h2ds/internal/core"
	"h2ds/internal/kernel"
	"h2ds/internal/oracle"
	"h2ds/internal/pointset"
	"h2ds/internal/sample"
)

// BuildSpec describes one matrix instance: either a synthetic build (the
// same knobs as the h2serve/h2info build mode) or a load-from-file source
// (Path, a stream written by core.Matrix.WriteTo). The zero value of every
// build field gets the serving default, so a spec can be as small as
// {"n": 5000}.
type BuildSpec struct {
	Kernel  string  `json:"kernel,omitempty"`  // kernel name (default "coulomb")
	Dist    string  `json:"dist,omitempty"`    // distribution (default "cube")
	N       int     `json:"n,omitempty"`       // points (default 20000)
	Dim     int     `json:"dim,omitempty"`     // dimension, cube only (default 3)
	Tol     float64 `json:"tol,omitempty"`     // target relative accuracy (default 1e-6)
	RelTol  float64 `json:"reltol,omitempty"`  // error-controlled build tolerance (0 = fixed-parameter build)
	Basis   string  `json:"basis,omitempty"`   // "dd" or "interp" (default "dd")
	Mem     string  `json:"mem,omitempty"`     // "normal", "otf", or "hybrid" (default "otf")
	Leaf    int     `json:"leaf,omitempty"`    // leaf size (0 = core default)
	Sampler string  `json:"sampler,omitempty"` // sampler name (default "anchornet")
	Seed    int64   `json:"seed,omitempty"`    // workload seed (default 1)
	Workers int     `json:"workers,omitempty"` // build/matvec workers (0 = GOMAXPROCS)

	// StorageBudget is the hybrid-mode block byte budget (mem "hybrid"
	// only): the best assembly-savings-per-byte blocks are stored up to
	// this many bytes and the rest are evaluated on the fly.
	StorageBudget int64 `json:"storage_budget,omitempty"`

	// Path, when set, loads the matrix from this serialized file instead of
	// building; the kernel is resolved from the stream (core.ReadAny) and
	// every build knob above is ignored.
	Path string `json:"path,omitempty"`

	// Source selects the construction front-end: "" (default) builds from a
	// named kernel on a generated point set; "dense" builds
	// geometry-obliviously from a dense matrix file through the entry
	// oracle (internal/oracle) — no kernel, no coordinates. Dense builds are
	// data-driven and stored-only (mem "normal"), since there is no formula
	// to re-evaluate blocks from at apply time.
	Source string `json:"source,omitempty"`

	// DataPath is the dense source's matrix file: n·n row-major
	// little-endian float64 values, no header (n is inferred from the file
	// size). The upload endpoint writes these files; a spec may also point
	// at one directly.
	DataPath string `json:"data_path,omitempty"`

	// Sym declares the dense matrix symmetric (shared bases, triangular
	// block storage). Trusted, not verified.
	Sym bool `json:"sym,omitempty"`

	// Replica marks an instance installed from another node's serialized
	// stream (Registry.Install) rather than built locally. Purely
	// informational: listings show where an instance came from, and the
	// cluster router treats replicas as read-only.
	Replica bool `json:"replica,omitempty"`
}

// withDefaults resolves zero build fields to the serving defaults.
func (sp BuildSpec) withDefaults() BuildSpec {
	if sp.Path != "" {
		return sp
	}
	if sp.Source == "dense" {
		// Geometry-oblivious build: kernel/dist/n/dim come from the data
		// file, and the memory mode is pinned to the only supported one.
		if sp.Tol == 0 {
			sp.Tol = 1e-6
		}
		if sp.Mem == "" {
			sp.Mem = "normal"
		}
		if sp.Basis == "" {
			sp.Basis = "dd"
		}
		if sp.Sampler == "" {
			sp.Sampler = "anchornet"
		}
		if sp.Seed == 0 {
			sp.Seed = 1
		}
		return sp
	}
	if sp.Kernel == "" {
		sp.Kernel = "coulomb"
	}
	if sp.Dist == "" {
		sp.Dist = "cube"
	}
	if sp.N == 0 {
		sp.N = 20000
	}
	if sp.Dim == 0 {
		sp.Dim = 3
	}
	if sp.Tol == 0 {
		sp.Tol = 1e-6
	}
	if sp.Basis == "" {
		sp.Basis = "dd"
	}
	if sp.Mem == "" {
		sp.Mem = "otf"
	}
	if sp.Sampler == "" {
		sp.Sampler = "anchornet"
	}
	if sp.Seed == 0 {
		sp.Seed = 1
	}
	return sp
}

// validate rejects specs that can never build: unknown enum names and
// non-positive sizes fail at submission time (synchronously, so the HTTP
// layer can answer 400), while environmental failures (missing Path file,
// build errors) surface asynchronously as state Failed.
func (sp BuildSpec) validate() error {
	if sp.Path != "" {
		return nil
	}
	if sp.Source != "" && sp.Source != "dense" {
		return fmt.Errorf("registry: unknown source %q (valid: \"\", dense)", sp.Source)
	}
	if sp.Source == "dense" {
		if sp.DataPath == "" {
			return fmt.Errorf("registry: dense source needs a data_path")
		}
		if sp.Mem != "normal" {
			return fmt.Errorf("registry: dense source is stored-only (mem \"normal\"): mode %q re-evaluates blocks from a kernel the oracle does not have", sp.Mem)
		}
		if sp.Basis != "dd" {
			return fmt.Errorf("registry: dense source requires the data-driven basis, got %q", sp.Basis)
		}
		if _, ok := sample.Named(sp.Sampler); !ok {
			return fmt.Errorf("registry: unknown sampler %q", sp.Sampler)
		}
		if sp.N < 0 {
			return fmt.Errorf("registry: negative n %d", sp.N)
		}
		return sp.validateTols()
	}
	if _, err := kernel.ByName(sp.Kernel); err != nil {
		return err
	}
	if _, ok := pointset.Named(sp.Dist, 1, maxInt(sp.Dim, 1), 1); !ok {
		return fmt.Errorf("registry: unknown distribution %q", sp.Dist)
	}
	if _, ok := sample.Named(sp.Sampler); !ok {
		return fmt.Errorf("registry: unknown sampler %q", sp.Sampler)
	}
	if sp.Basis != "dd" && sp.Basis != "interp" {
		return fmt.Errorf("registry: unknown basis %q (valid: dd, interp)", sp.Basis)
	}
	if sp.Mem != "normal" && sp.Mem != "otf" && sp.Mem != "hybrid" {
		return fmt.Errorf("registry: unknown memory mode %q (valid: normal, otf, hybrid)", sp.Mem)
	}
	if sp.StorageBudget < 0 {
		return fmt.Errorf("registry: negative storage budget %d", sp.StorageBudget)
	}
	if sp.N < 1 {
		return fmt.Errorf("registry: n must be positive, got %d", sp.N)
	}
	return sp.validateTols()
}

// validateTols checks both tolerances are a real number in [0, 1): zero
// means "use the default" (tol) or "disabled" (reltol), and a tolerance of
// 1 or more is meaningless for a relative accuracy target. NaN in
// particular would otherwise slide through every float comparison and build
// a garbage matrix.
func (sp BuildSpec) validateTols() error {
	if v := sp.Tol; math.IsNaN(v) || v < 0 || v >= 1 {
		return fmt.Errorf("registry: tol must be in (0, 1), got %g", v)
	}
	if v := sp.RelTol; math.IsNaN(v) || v < 0 || v >= 1 {
		return fmt.Errorf("registry: reltol must be in (0, 1), got %g", v)
	}
	return nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Builder turns a spec into a matrix. setStage stamps build progress for
// GET /matrices observers ("points", "build", "load"); ctx is the build
// job's context — cancelled by Delete and registry shutdown, and checked by
// the worker at stage boundaries regardless of whether the builder honors
// it. When Config.Builder is nil, New installs BuildWithCache over the
// registry's shared construction cache (a nil cache when CacheEntries < 0);
// embedders override it for custom matrix sources or fault injection.
type Builder func(ctx context.Context, sp BuildSpec, setStage func(string)) (*core.Matrix, error)

// BuildWithCache resolves a spec against the kernel/pointset/sampler name
// registries and runs core.Build, loads from sp.Path via core.ReadAny, or —
// for the "dense" source — loads the matrix file into an entry oracle and
// runs the geometry-oblivious core.BuildOracle. It threads an optional
// (nil = none) construction cache into the build: tenants whose geometry
// and tree/sampling parameters fingerprint identically (and hot-swap
// rebuilds of one tenant) reuse the spatial tree and Algorithm 1 hierarchy
// instead of re-running them — observable as Phases.CacheHit with
// sample_ns == 0 in the instance info. A registry without an explicit
// Builder routes every build through its own shared cache.
func BuildWithCache(ctx context.Context, sp BuildSpec, setStage func(string), cache *core.BuildCache) (*core.Matrix, error) {
	if sp.Path != "" {
		setStage("load")
		m, err := loadMatrix(sp.Path)
		if err == nil && sp.Workers > 0 {
			// The stream never carries a worker count (it is a host
			// preference, not matrix state), so an explicit spec value
			// applies to the loaded instance the same as to a built one.
			m.Cfg.Workers = sp.Workers
		}
		return m, err
	}
	if sp.Source == "dense" {
		setStage("load-data")
		src, err := oracle.LoadDense(sp.DataPath, sp.Sym)
		if err != nil {
			return nil, err
		}
		if sp.N > 0 && src.N() != sp.N {
			return nil, fmt.Errorf("registry: data file holds a %d×%d matrix, spec says n=%d", src.N(), src.N(), sp.N)
		}
		s, ok := sample.Named(sp.Sampler)
		if !ok {
			return nil, fmt.Errorf("registry: unknown sampler %q", sp.Sampler)
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		setStage("build")
		return core.BuildOracle(src, core.Config{
			Kind: core.DataDriven, Mode: core.Normal,
			Tol: sp.Tol, RelTol: sp.RelTol, LeafSize: sp.Leaf,
			Workers: sp.Workers, Sampler: s, Cache: cache,
		})
	}
	k, err := kernel.ByName(sp.Kernel)
	if err != nil {
		return nil, err
	}
	setStage("points")
	pts, ok := pointset.Named(sp.Dist, sp.N, sp.Dim, sp.Seed)
	if !ok {
		return nil, fmt.Errorf("registry: unknown distribution %q", sp.Dist)
	}
	s, ok := sample.Named(sp.Sampler)
	if !ok {
		return nil, fmt.Errorf("registry: unknown sampler %q", sp.Sampler)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cfg := core.Config{
		Tol: sp.Tol, RelTol: sp.RelTol, LeafSize: sp.Leaf, Workers: sp.Workers, Sampler: s,
		Cache: cache,
	}
	switch sp.Basis {
	case "dd":
		cfg.Kind = core.DataDriven
	case "interp":
		cfg.Kind = core.Interpolation
	default:
		return nil, fmt.Errorf("registry: unknown basis %q", sp.Basis)
	}
	switch sp.Mem {
	case "normal":
		cfg.Mode = core.Normal
	case "otf":
		cfg.Mode = core.OnTheFly
	case "hybrid":
		cfg.Mode = core.Hybrid
		cfg.StorageBudget = sp.StorageBudget
	default:
		return nil, fmt.Errorf("registry: unknown memory mode %q", sp.Mem)
	}
	setStage("build")
	return core.Build(pts, k, cfg)
}

// loadMatrix reads one serialized matrix, resolving the kernel from the
// stream. Shared by the Path source and eviction-spill rehydration.
func loadMatrix(path string) (*core.Matrix, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	m, err := core.ReadAny(f)
	if err != nil {
		return nil, fmt.Errorf("load %s: %w", path, err)
	}
	return m, nil
}

// nameRE restricts instance names so they embed safely in URL paths and
// spill filenames.
var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$`)

// checkName validates an instance name.
func checkName(name string) error {
	if !nameRE.MatchString(name) || strings.Contains(name, "..") {
		return fmt.Errorf("registry: invalid instance name %q (want [A-Za-z0-9._-], max 64, no leading punctuation)", name)
	}
	return nil
}
