package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"h2ds/internal/interp"
	"h2ds/internal/kernel"
	"h2ds/internal/mat"
	"h2ds/internal/par"
	"h2ds/internal/pointset"
	"h2ds/internal/sample"
	"h2ds/internal/tree"
)

// Matrix is an H² approximation of the kernel matrix A = [K(x_i, x_j)] over
// a point set. It is produced by Build and applied to vectors with Apply.
type Matrix struct {
	Cfg  Config
	Kern kernel.Pairwise
	Tree *tree.Tree
	N    int
	Dim  int

	// Per-node row-side generators. For leaves, u[i] holds the basis U_i
	// (|X_i| x rank); for internal nodes, trans[i] stacks the children
	// transfer blocks R_c ((Σ_c rank_c) x rank) in child order. ranks[i]
	// is the node's row basis rank.
	u     []*mat.Dense
	trans []*mat.Dense
	ranks []int

	// Column-side generators (the paper's V and W). They are populated
	// only for unsymmetric kernels under the data-driven construction;
	// otherwise sharedBasis is true and the row-side generators serve both
	// roles (V = U, W = R).
	v           []*mat.Dense
	wTrans      []*mat.Dense
	colRanks    []int
	colSkel     [][]int
	sharedBasis bool

	// Skeletons: block B_{i,j} is the kernel evaluated between the row
	// skeleton of i and the column skeleton of j. For the data-driven
	// method skelPts[i] aliases Tree.Points and skel[i] holds selected
	// (permuted) point indices; for interpolation skelPts[i] holds the
	// node's Chebyshev grid and skel[i] is the full index range.
	skel    [][]int
	skelPts []*pointset.Points

	// hier is the sampling output (data-driven only): run by Build, or
	// shared from a construction-cache hit, or read from a stream.
	hier *sample.Hierarchy

	// p is the interpolation points per direction: interp.PFromTol(Tol) for
	// a build, the stream's value for a loaded matrix. Only the
	// interpolation basis uses it; every stream records it.
	p int

	// Stored coupling and nearfield blocks: all of them in Normal mode, none
	// in OnTheFly mode, a budgeted subset in Hybrid mode (see storeBlocks).
	coup *BlockStore
	near *BlockStore

	// allIdx is the shared identity index [0, n) into the permuted points;
	// leaf ranges are subslices.
	allIdx []int

	// wsPool recycles matvec workspaces so the convenience entry points
	// (ApplyTo, ApplyTranspose, ApplyBatchTo) are allocation-free in steady
	// state. See Workspace.
	wsPool sync.Pool

	// sched is the lazily built barrier-free apply task graph (see
	// schedule.go); it depends only on the immutable tree topology, so one
	// graph serves every workspace and apply variant.
	schedOnce sync.Once
	sched     *taskGraph

	// Construction-phase attribution (ns), accumulated across pool workers
	// during the basis sweep: farfield panel assembly, leaf-node IDs, and
	// internal-node (transfer) IDs. Because workers run concurrently, the
	// summed counters can exceed the wall-clock basis time.
	phaseAssembly atomic.Int64
	phaseID       atomic.Int64
	phaseTransfer atomic.Int64

	stats  BuildStats
	sweeps sweepTimers
}

// BuildStats records construction timings and counters for the bench
// harness (the paper's T_const breakdown).
type BuildStats struct {
	Nodes, Leaves, Depth int
	InteractionBlocks    int // undirected coupling blocks represented
	NearBlocks           int // undirected nearfield blocks represented
	MaxRank              int
	SumLeafRank          int

	// LevelRanks summarizes the achieved row-basis ranks per tree level —
	// the observable output of the rank-selection rule (ID truncation at
	// the tolerance).
	LevelRanks []LevelRank

	// RelTol is the requested error-controlled tolerance (zero for
	// fixed-parameter builds) and EstRelErr the a-posteriori sampled
	// relative error ‖Ax − K̃x‖/‖Kx‖ measured against dense reference rows
	// right after construction. EstRelErr is only computed for RelTol
	// builds; it rides through serialization so a loaded matrix still
	// reports the accuracy it was verified at.
	RelTol    float64
	EstRelErr float64

	// Phases is the per-phase construction breakdown, the one record of
	// every build timing. It is not serialized; a loaded matrix reports
	// zero phases.
	Phases BuildPhases
}

// BuildPhases attributes construction time (nanoseconds) to pipeline
// phases. TreeNS, SampleNS, BasisNS, CouplingNS, and TotalNS are
// wall-clock; AssemblyNS, IDNS, and TransferNS are summed across
// construction workers and can exceed BasisNS. On a construction-cache hit
// (CacheHit true) the tree and hierarchy are reused, so SampleNS is zero —
// the observable receipt that Algorithm 1 was skipped.
type BuildPhases struct {
	TreeNS     int64 `json:"tree_ns"`
	SampleNS   int64 `json:"sample_ns"`
	BasisNS    int64 `json:"basis_ns"`
	AssemblyNS int64 `json:"assembly_ns"`
	IDNS       int64 `json:"id_ns"`
	TransferNS int64 `json:"transfer_ns"`
	CouplingNS int64 `json:"coupling_ns"`
	TotalNS    int64 `json:"total_ns"`
	CacheHit   bool  `json:"cache_hit"`
}

// Summary is the one description of a built matrix that h2info, h2serve's
// startup line, GET /matrices/{name} and GET /stats all render. LevelRanks
// is set only for RelTol builds, and Phases is nil for loaded matrices.
type Summary struct {
	N       int    `json:"n,omitempty"`
	Dim     int    `json:"dim,omitempty"`
	Kernel  string `json:"kernel,omitempty"` // empty for a kernel-less stream
	Mode    string `json:"mode,omitempty"`
	Basis   string `json:"basis,omitempty"`
	Workers int    `json:"workers,omitempty"` // resolved apply parallelism

	MaxRank    int         `json:"max_rank,omitempty"`
	RelTol     float64     `json:"reltol,omitempty"`
	EstRelErr  float64     `json:"est_relerr,omitempty"`
	LevelRanks []LevelRank `json:"level_ranks,omitempty"`

	Phases *BuildPhases `json:"phases,omitempty"`
}

// Summary snapshots m's description.
func (m *Matrix) Summary() Summary {
	s := Summary{
		N: m.N, Dim: m.Dim, Kernel: m.Kern.Name(),
		Mode: m.Cfg.Mode.String(), Basis: m.Cfg.Kind.String(),
		Workers: par.Resolve(m.Cfg.Workers),
		MaxRank: m.stats.MaxRank, RelTol: m.stats.RelTol, EstRelErr: m.stats.EstRelErr,
	}
	if s.RelTol > 0 {
		s.LevelRanks = m.stats.LevelRanks
	}
	if ph := m.stats.Phases; ph.TotalNS > 0 {
		s.Phases = &ph
	}
	return s
}

// Line renders the summary's shape as one line. (Not String: Summary is
// embedded in other types, which must not inherit it as their Stringer.)
func (s Summary) Line() string {
	k := s.Kernel
	if k == "" {
		k = "(none)"
	}
	return fmt.Sprintf("n=%d dim=%d kernel=%s basis=%s mode=%s workers=%d",
		s.N, s.Dim, k, s.Basis, s.Mode, s.Workers)
}

// LevelRank is the achieved rank summary of one tree level.
type LevelRank struct {
	Level   int     `json:"level"`
	Nodes   int     `json:"nodes"`
	MinRank int     `json:"min_rank"`
	MaxRank int     `json:"max_rank"`
	AvgRank float64 `json:"avg_rank"`
}

// Build constructs an H² representation of the kernel matrix over pts.
// pts is copied; the caller's slice is not retained. Any Pairwise kernel is
// accepted; unsymmetric kernels get separate row and column bases (the
// paper's general U/V, R/W formulation) under the data-driven construction,
// while interpolation shares its kernel-independent polynomial bases.
func Build(pts *pointset.Points, k kernel.Pairwise, cfg Config) (*Matrix, error) {
	if pts.Len() == 0 {
		return nil, fmt.Errorf("core: empty point set")
	}
	if v := cfg.RelTol; v != 0 && (math.IsNaN(v) || v < 0 || v >= 1) {
		return nil, fmt.Errorf("core: RelTol must be in (0, 1), got %g", v)
	}
	cfg = cfg.withDefaults(pts.Dim)
	start := time.Now()

	m := &Matrix{Cfg: cfg, Kern: k, N: pts.Len(), Dim: pts.Dim, p: interp.PFromTol(cfg.Tol)}

	// Construction cache: a fingerprint hit supplies the tree and sampling
	// hierarchy of an earlier build over the same geometry+parameters, so
	// Algorithm 1 (and the tree partition) are skipped entirely.
	var cacheFP uint64
	cacheable := cfg.Cache != nil && cfg.Kind == DataDriven
	cacheHit := false
	if cacheable {
		cacheFP = constructionFingerprint(pts, cfg)
		m.Tree, m.hier, cacheHit = cfg.Cache.lookup(cacheFP, pts.Len(), pts.Dim)
	}

	pool := par.NewPool(cfg.Workers)
	defer pool.Close()

	t0 := time.Now()
	if m.Tree == nil {
		m.Tree = tree.New(pts, tree.Config{LeafSize: cfg.LeafSize, Eta: cfg.Eta}, pool)
	}
	m.stats.Phases.TreeNS = time.Since(t0).Nanoseconds()

	nNodes := len(m.Tree.Nodes)
	m.u = make([]*mat.Dense, nNodes)
	m.trans = make([]*mat.Dense, nNodes)
	m.ranks = make([]int, nNodes)
	m.skel = make([][]int, nNodes)
	m.skelPts = make([]*pointset.Points, nNodes)
	m.sharedBasis = k.Symmetric() || cfg.Kind == Interpolation
	if !m.sharedBasis {
		m.v = make([]*mat.Dense, nNodes)
		m.wTrans = make([]*mat.Dense, nNodes)
		m.colRanks = make([]int, nNodes)
		m.colSkel = make([][]int, nNodes)
	}
	m.allIdx = make([]int, m.N)
	for i := range m.allIdx {
		m.allIdx[i] = i
	}

	switch cfg.Kind {
	case DataDriven:
		m.buildDataDriven(pool)
	case Interpolation:
		m.buildInterpolation(pool)
	default:
		return nil, fmt.Errorf("core: unknown basis kind %v", cfg.Kind)
	}

	t0 = time.Now()
	m.storeBlocks(pool, cfg.blockBudget())
	m.stats.Phases.CouplingNS = time.Since(t0).Nanoseconds()

	m.finishStats()
	if cfg.RelTol > 0 {
		m.stats.RelTol = cfg.RelTol
		m.stats.EstRelErr = m.aPosterioriError()
	}
	if cacheable && !cacheHit {
		cfg.Cache.insert(cacheFP, pts.Len(), pts.Dim, m.Tree, m.hier)
	}
	ph := &m.stats.Phases
	ph.AssemblyNS = m.phaseAssembly.Load()
	ph.IDNS = m.phaseID.Load()
	ph.TransferNS = m.phaseTransfer.Load()
	ph.TotalNS = time.Since(start).Nanoseconds()
	ph.CacheHit = cacheHit
	return m, nil
}

// relTolProbeSeed drives the deterministic probe vector and row choice of
// the a-posteriori estimate, so identical builds report identical errors.
const relTolProbeSeed = 0x5eed

// aPosterioriError runs the paper's sampled error estimator against the
// freshly built matrix: apply Â to a deterministic Gaussian probe vector and
// compare a handful of entries against exact dense kernel rows. This is the
// error-controlled build's receipt — the achieved accuracy for the requested
// RelTol, at the cost of DefaultErrorRows dense rows (O(rows·n) kernel
// evaluations).
func (m *Matrix) aPosterioriError() float64 {
	rng := rand.New(rand.NewSource(relTolProbeSeed))
	b := make([]float64, m.N)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	return m.EstimateRelError(b, DefaultErrorRows, relTolProbeSeed+1)
}

// finishStats fills the structural counters after construction.
func (m *Matrix) finishStats() {
	ts := m.Tree.ComputeStats()
	m.stats.Nodes = ts.Nodes
	m.stats.Leaves = ts.Leaves
	m.stats.Depth = ts.Depth
	m.stats.InteractionBlocks = ts.InteractionPairs / 2
	// NearPairs counts directed pairs including self; undirected count is
	// self pairs + (others)/2.
	self := ts.Leaves
	m.stats.NearBlocks = self + (ts.NearPairs-self)/2
	for i := range m.Tree.Nodes {
		if m.ranks[i] > m.stats.MaxRank {
			m.stats.MaxRank = m.ranks[i]
		}
		if m.Tree.Nodes[i].IsLeaf {
			m.stats.SumLeafRank += m.ranks[i]
		}
	}
	m.stats.LevelRanks = m.levelRanks()
}

// levelRanks summarizes the achieved row-basis ranks per tree level.
func (m *Matrix) levelRanks() []LevelRank {
	out := make([]LevelRank, 0, len(m.Tree.Levels))
	for l, level := range m.Tree.Levels {
		if len(level) == 0 {
			continue
		}
		lr := LevelRank{Level: l, Nodes: len(level), MinRank: m.ranks[level[0]]}
		sum := 0
		for _, id := range level {
			r := m.ranks[id]
			sum += r
			if r < lr.MinRank {
				lr.MinRank = r
			}
			if r > lr.MaxRank {
				lr.MaxRank = r
			}
		}
		lr.AvgRank = float64(sum) / float64(len(level))
		out = append(out, lr)
	}
	return out
}

// Stats returns the construction statistics.
func (m *Matrix) Stats() BuildStats { return m.stats }

// NodeRanks returns a copy of the per-node basis ranks (indexed by tree
// node id); the Fig 2 rank-comparison experiment reads these.
func (m *Matrix) NodeRanks() []int { return append([]int(nil), m.ranks...) }

// Rank returns the rank of node id's basis.
func (m *Matrix) Rank(id int) int { return m.ranks[id] }

// Skeleton returns the skeleton index set of node id (data-driven: permuted
// point indices; interpolation: grid indices).
func (m *Matrix) Skeleton(id int) []int { return m.skel[id] }

// colRank returns node id's column basis rank (the row rank when bases are
// shared).
func (m *Matrix) colRank(id int) int {
	if m.sharedBasis {
		return m.ranks[id]
	}
	return m.colRanks[id]
}

// colSkeleton returns node id's column skeleton.
func (m *Matrix) colSkeleton(id int) []int {
	if m.sharedBasis {
		return m.skel[id]
	}
	return m.colSkel[id]
}

// store returns the nearfield store for near, else the coupling store.
func (m *Matrix) store(near bool) *BlockStore {
	if near {
		return m.near
	}
	return m.coup
}

// blockPoints resolves stored key (a, b) to the points a block's entries
// are evaluated between — rows of x by cols of y: the row skeleton of a and
// the column skeleton of b for a coupling block, the leaf ranges of a and b
// for a nearfield block.
func (m *Matrix) blockPoints(near bool, a, b int) (x *pointset.Points, rows []int, y *pointset.Points, cols []int) {
	if near {
		return m.Tree.Points, m.leafRange(a), m.Tree.Points, m.leafRange(b)
	}
	return m.skelPts[a], m.skel[a], m.skelPts[b], m.colSkeleton(b)
}

// blockBudget is the block-storage budget of the configured memory mode
// for storeBlocks: every block (negative) in Normal mode, none in OnTheFly,
// and StorageBudget bytes in Hybrid.
func (c Config) blockBudget() int64 {
	switch c.Mode {
	case Normal:
		return -1
	case Hybrid:
		return max(c.StorageBudget, 0)
	}
	return 0
}

// storeBlocks creates the matrix's coupling and nearfield stores and
// assembles into them every block under a negative budget, none under a
// zero budget, and otherwise the best-value blocks that fit the budget in
// bytes. The sweeps evaluate every block left out on the fly, in the
// orientation it would have been stored in, so the budget decides where a
// block's numbers come from, never how they are summed.
//
// Value is assembly savings per byte: kernel-evaluation cost is
// proportional to the element count (= bytes), so savings/byte reduces to
// the per-matvec use count, with top tree levels first as the tie-break
// (their blocks sit on every interaction list and stay hot), then a
// deterministic kind/i/j order so equal-budget builds always select
// identical sets. Selection is greedy and keeps scanning past blocks that
// no longer fit.
//
// Block shapes are known before assembly, so the stores lay out their CSR
// index first. Assembly then runs one parallel task per CSR row, which
// allocates the row's payload and assembles its blocks into it in place
// through the fused tile path: the row's pages are zeroed and first touched
// by the worker that writes them, while they are still in its cache. The
// rows run on pool.
func (m *Matrix) storeBlocks(pool *par.Pool, budget int64) {
	m.coup, m.near = newBlockStores(m.Kern.Symmetric())
	if budget == 0 {
		return
	}
	cands := m.blockCandidates()
	if budget > 0 {
		cands = selectBlocks(cands, budget)
	}
	var specs [2][]PutSpec // coupling, nearfield
	for _, c := range cands {
		_, rows, _, cols := m.blockPoints(c.near, c.i, c.j)
		f := 0
		if c.near {
			f = 1
		}
		specs[f] = append(specs[f], PutSpec{I: c.i, J: c.j, Rows: len(rows), Cols: len(cols)})
	}
	for f, phase := range [2]string{"coupling", "nearfield"} {
		near := f == 1
		s := m.store(near)
		s.Preallocate(specs[f])
		buildPhase(phase, func() {
			pool.For(s.numRows(), func(i int) {
				hdr, js := s.allocRow(i)
				for k, j := range js {
					x, rows, y, cols := m.blockPoints(near, i, int(j))
					kernel.Assemble(&hdr[k], m.Kern, x, rows, y, cols)
				}
			})
		})
	}
}

// blockCand describes one storable coupling or nearfield block for
// storeBlocks.
type blockCand struct {
	near  bool // nearfield (leaf dense) block vs coupling block
	i, j  int  // store key (i <= j for symmetric kernels)
	level int  // tree level of node i (selection tie-break: top levels first)
	elems int64
	uses  int8 // block applications per matvec this storage saves
}

// storedBlockBytes is the store footprint of one block: payload plus
// header plus CSR index entry (mirrors BlockStore.Bytes accounting).
func storedBlockBytes(elems int64) int64 { return elems*8 + 48 }

// blockCandidates enumerates every block the normal mode stores — one
// triangle for symmetric kernels, every directed pair otherwise, skipping
// coupling blocks with a rank-0 side — annotated for the budget's cost
// model. A symmetric off-diagonal block is applied twice per matvec (once
// forward, once transposed), so storing it saves two on-the-fly
// evaluations; diagonal and directed blocks save one.
func (m *Matrix) blockCandidates() []blockCand {
	sym := m.Kern.Symmetric()
	var cands []blockCand
	for i := range m.Tree.Nodes {
		ri := int64(m.ranks[i])
		if ri == 0 {
			continue
		}
		for _, j := range m.Tree.Nodes[i].Interaction {
			if sym && i >= j {
				continue
			}
			rj := int64(m.colRank(j))
			if rj == 0 {
				continue
			}
			uses := int8(1)
			if sym {
				uses = 2
			}
			cands = append(cands, blockCand{
				near: false, i: i, j: j, level: m.Tree.Nodes[i].Level,
				elems: ri * rj, uses: uses,
			})
		}
	}
	for _, i := range m.Tree.Leaves {
		si := int64(m.Tree.Nodes[i].Size())
		for _, j := range m.Tree.Nodes[i].Near {
			if sym && i > j {
				continue
			}
			uses := int8(1)
			if sym && i != j {
				uses = 2
			}
			cands = append(cands, blockCand{
				near: true, i: i, j: j, level: m.Tree.Nodes[i].Level,
				elems: si * int64(m.Tree.Nodes[j].Size()), uses: uses,
			})
		}
	}
	return cands
}

// selectBlocks returns the best-value candidates that fit budget bytes (see
// storeBlocks), reordering cands in place.
func selectBlocks(cands []blockCand, budget int64) []blockCand {
	sort.Slice(cands, func(a, b int) bool {
		ca, cb := &cands[a], &cands[b]
		if ca.uses != cb.uses {
			return ca.uses > cb.uses
		}
		if ca.level != cb.level {
			return ca.level < cb.level
		}
		if ca.near != cb.near {
			return !ca.near
		}
		if ca.i != cb.i {
			return ca.i < cb.i
		}
		return ca.j < cb.j
	})
	var used int64
	selected := cands[:0]
	for _, c := range cands {
		cost := storedBlockBytes(c.elems)
		if used+cost > budget {
			continue
		}
		selected = append(selected, c)
		used += cost
	}
	return selected
}

// WithStorageBudget derives a Hybrid-mode view of m under the given block
// storage budget: it shares every immutable generator (tree, bases,
// transfers, skeletons) with m and builds only its own block stores, so a
// registry can downgrade a resident Normal-mode instance to a fraction of
// its footprint without re-running construction. Its products are
// bitwise-identical to m's. The result is an independent Matrix with fresh
// sweep counters and its own workspace pool; m is not modified and both
// remain safe for concurrent use.
func (m *Matrix) WithStorageBudget(budget int64) *Matrix {
	c := &Matrix{
		Cfg: m.Cfg, Kern: m.Kern, Tree: m.Tree, N: m.N, Dim: m.Dim,
		u: m.u, trans: m.trans, ranks: m.ranks,
		v: m.v, wTrans: m.wTrans, colRanks: m.colRanks, colSkel: m.colSkel,
		sharedBasis: m.sharedBasis,
		skel:        m.skel, skelPts: m.skelPts,
		hier: m.hier, p: m.p, allIdx: m.allIdx,
		stats: m.stats,
	}
	c.Cfg.Mode = Hybrid
	c.Cfg.StorageBudget = budget
	pool := par.NewPool(c.Cfg.Workers)
	defer pool.Close()
	c.storeBlocks(pool, c.Cfg.blockBudget())
	return c
}

// leafRange returns the permuted index slice owned by node id.
func (m *Matrix) leafRange(id int) []int {
	nd := &m.Tree.Nodes[id]
	return m.allIdx[nd.Start:nd.End]
}
