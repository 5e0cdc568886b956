// Package hmatrix implements the simpler, non-nested H-matrix format the
// paper contrasts with H² (§I-B1): every admissible block is compressed
// independently as a low-rank product with no basis sharing between levels,
// giving O(n log n) storage and matvec instead of H²'s O(n).
//
// It exists as an ablation baseline: comparing it with internal/core
// quantifies what the nested-basis property buys. Block compression reuses
// the same data-driven machinery (anchor-net column sampling + row
// interpolative decomposition), so the comparison isolates the format, not
// the compression algorithm.
package hmatrix

import (
	"fmt"

	"h2ds/internal/kernel"
	"h2ds/internal/mat"
	"h2ds/internal/par"
	"h2ds/internal/pointset"
	"h2ds/internal/sample"
	"h2ds/internal/tree"
)

// Config tunes an H-matrix build.
type Config struct {
	// Tol is the per-block ID truncation tolerance (default 1e-8); it also
	// sets the column-sample budget per admissible block (hBudget).
	Tol float64
	// LeafSize and Workers as in the H² configuration; the separation
	// parameter is tree.DefaultEta and the column sampler the anchor net.
	LeafSize int
	Workers  int
	// Compressor selects the low-rank block algorithm: "id" (default, the
	// sampling + interpolative-decomposition path shared with the H² core)
	// or "aca" (adaptive cross approximation, the paper's §VII algebraic
	// baseline — faster per block but heuristic).
	Compressor string
}

// lowRankBlock is one compressed admissible block
//
//	K(X_i, X_j) ≈ T · B,   B = K(S_i, X_j)
//
// with T carrying an identity on the skeleton rows S_i ⊂ X_i. The reverse
// block K(X_j, X_i) is applied as Bᵀ Tᵀ.
type lowRankBlock struct {
	i, j int // node ids, i < j
	t    *mat.Dense
	b    *mat.Dense
}

// Matrix is a non-nested H approximation of a kernel matrix.
type Matrix struct {
	Cfg  Config
	Kern kernel.Pairwise
	Tree *tree.Tree
	N    int

	// blocksOf[i] indexes into blocks: the low-rank blocks whose row
	// cluster is i (direct orientation) and whose column cluster is i
	// (transposed orientation), kept separate so the matvec can process
	// all writes to a node's output range on a single worker.
	blocks      []lowRankBlock
	directOf    [][]int
	transposeOf [][]int
	near        [][]*mat.Dense // per leaf list position, aligned with Node.Near
	allIdx      []int
}

// Build constructs the H-matrix. Only symmetric kernels are supported:
// the format stores one factorization per undirected admissible pair and
// applies the reverse direction transposed.
func Build(pts *pointset.Points, k kernel.Pairwise, cfg Config) (*Matrix, error) {
	if pts.Len() == 0 {
		return nil, fmt.Errorf("hmatrix: empty point set")
	}
	if !k.Symmetric() {
		return nil, fmt.Errorf("hmatrix: unsymmetric kernel %q not supported (each admissible block is stored once and applied transposed; use the H² core, which carries separate row/column bases)", k.Name())
	}
	if cfg.Tol <= 0 {
		cfg.Tol = 1e-8
	}
	switch cfg.Compressor {
	case "", "id", "aca":
	default:
		return nil, fmt.Errorf("hmatrix: unknown compressor %q (want id or aca)", cfg.Compressor)
	}
	m := &Matrix{Cfg: cfg, Kern: k, N: pts.Len()}
	// One pool runs the tree partition, the block compression and the
	// nearfield assembly.
	pool := par.NewPool(cfg.Workers)
	defer pool.Close()
	m.Tree = tree.New(pts, tree.Config{LeafSize: cfg.LeafSize}, pool)
	m.allIdx = make([]int, m.N)
	for i := range m.allIdx {
		m.allIdx[i] = i
	}

	// Collect the undirected admissible pairs.
	type pair struct{ i, j int }
	var pairs []pair
	for i := range m.Tree.Nodes {
		for _, j := range m.Tree.Nodes[i].Interaction {
			if i < j {
				pairs = append(pairs, pair{i, j})
			}
		}
	}
	m.blocks = make([]lowRankBlock, len(pairs))
	pool.For(len(pairs), func(k2 int) {
		p := pairs[k2]
		m.blocks[k2] = m.compressBlock(p.i, p.j)
	})
	m.directOf = make([][]int, len(m.Tree.Nodes))
	m.transposeOf = make([][]int, len(m.Tree.Nodes))
	for bi := range m.blocks {
		b := &m.blocks[bi]
		m.directOf[b.i] = append(m.directOf[b.i], bi)
		m.transposeOf[b.j] = append(m.transposeOf[b.j], bi)
	}

	// Nearfield blocks, dense, aligned with each leaf's Near list.
	m.near = make([][]*mat.Dense, len(m.Tree.Nodes))
	pool.For(len(m.Tree.Leaves), func(k2 int) {
		id := m.Tree.Leaves[k2]
		nd := &m.Tree.Nodes[id]
		m.near[id] = make([]*mat.Dense, len(nd.Near))
		for p, j := range nd.Near {
			nj := &m.Tree.Nodes[j]
			m.near[id][p] = kernel.NewBlock(k, m.Tree.Points,
				m.allIdx[nd.Start:nd.End], m.Tree.Points, m.allIdx[nj.Start:nj.End])
		}
	})
	return m, nil
}

// hBudget mirrors the H² default sample budget for 3-D problems.
func hBudget(tol float64) int {
	digits := 0
	for t := tol; t < 1 && digits < 16; t *= 10 {
		digits++
	}
	return 10 + 11*digits
}

// compressBlock builds the low-rank factors for the admissible pair (i, j)
// with the configured compressor.
func (m *Matrix) compressBlock(i, j int) lowRankBlock {
	ni, nj := &m.Tree.Nodes[i], &m.Tree.Nodes[j]
	rows := m.allIdx[ni.Start:ni.End]
	cols := m.allIdx[nj.Start:nj.End]
	if m.Cfg.Compressor == "aca" {
		return m.compressACA(i, j, rows, cols)
	}
	// Default "id" path: sample columns of the block via the point sampler
	// on X_j, row-ID the sampled panel to pick skeleton rows in X_i, then
	// evaluate the full skeleton rows.
	csample := sample.AnchorNet{}.Sample(m.Tree.Points, cols, hBudget(m.Cfg.Tol))
	panel := kernel.NewBlock(m.Kern, m.Tree.Points, rows, m.Tree.Points, csample)
	id := mat.NewRowID(panel, m.Cfg.Tol, 0, nil)
	skel := make([]int, id.Rank)
	for s, loc := range id.Skel {
		skel[s] = rows[loc]
	}
	b := kernel.NewBlock(m.Kern, m.Tree.Points, skel, m.Tree.Points, cols)
	return lowRankBlock{i: i, j: j, t: id.T, b: b}
}

// compressACA factorizes the admissible block K(X_i, X_j) with adaptive
// cross approximation over an entry oracle — no panel is ever formed.
func (m *Matrix) compressACA(i, j int, rows, cols []int) lowRankBlock {
	pts := m.Tree.Points
	d := pts.Dim
	entry := func(r, c int) float64 {
		ri := rows[r]
		cj := cols[c]
		return m.Kern.EvalPair(pts.Coords[ri*d:ri*d+d], pts.Coords[cj*d:cj*d+d])
	}
	u, v := mat.ACA(len(rows), len(cols), entry, m.Cfg.Tol, hBudget(m.Cfg.Tol))
	return lowRankBlock{i: i, j: j, t: u, b: v.T()}
}

// Apply computes y = Â b in the caller's original point ordering.
func (m *Matrix) Apply(b []float64) []float64 {
	y := make([]float64, m.N)
	m.ApplyTo(y, b)
	return y
}

// ApplyTo computes y = Â b; y and b must have length N and not alias.
func (m *Matrix) ApplyTo(y, b []float64) {
	if len(y) != m.N || len(b) != m.N {
		panic(fmt.Sprintf("hmatrix: apply length mismatch y=%d b=%d n=%d", len(y), len(b), m.N))
	}
	bp := make([]float64, m.N)
	yp := make([]float64, m.N)
	m.Tree.PermuteVec(bp, b)
	m.applyPermuted(yp, bp)
	m.Tree.UnpermuteVec(y, yp)
}

// applyPermuted evaluates all blocks, node-major. A node's output range
// nests inside its ancestors' ranges, so the nodes run one tree level at a
// time: within a level the ranges are disjoint (one writer per entry), and
// every entry accumulates root-to-leaf, as in the serial id order, so the
// parallel result is bitwise the serial one. One pool runs every level.
func (m *Matrix) applyPermuted(yp, bp []float64) {
	for i := range yp {
		yp[i] = 0
	}
	pool := par.NewPool(m.Cfg.Workers)
	defer pool.Close()
	nodes := m.Tree.Nodes
	for _, level := range m.Tree.Levels {
		pool.For(len(level), func(k int) {
			id := level[k]
			nd := &nodes[id]
			yi := yp[nd.Start:nd.End]
			// Direct low-rank blocks: y_i += T (B b_j).
			for _, bi := range m.directOf[id] {
				blk := &m.blocks[bi]
				nj := &nodes[blk.j]
				tmp := make([]float64, blk.b.Rows)
				mat.MulVecAdd(tmp, blk.b, bp[nj.Start:nj.End])
				mat.MulVecAdd(yi, blk.t, tmp)
			}
			// Transposed blocks: y_j += Bᵀ (Tᵀ b_i).
			for _, bi := range m.transposeOf[id] {
				blk := &m.blocks[bi]
				niNode := &nodes[blk.i]
				tmp := make([]float64, blk.t.Cols)
				mat.MulTVecAdd(tmp, blk.t, bp[niNode.Start:niNode.End])
				mat.MulTVecAdd(yi, blk.b, tmp)
			}
			// Nearfield (leaves only).
			if nd.IsLeaf {
				for p, j := range nd.Near {
					nj := &nodes[j]
					mat.MulVecAdd(yi, m.near[id][p], bp[nj.Start:nj.End])
				}
			}
		})
	}
}

// Stats summarizes the representation.
type Stats struct {
	LowRankBlocks int
	NearBlocks    int
	MaxRank       int
	AvgRank       float64
}

// ComputeStats returns block counts and rank statistics.
func (m *Matrix) ComputeStats() Stats {
	s := Stats{LowRankBlocks: len(m.blocks)}
	sum := 0
	for i := range m.blocks {
		r := m.blocks[i].t.Cols
		sum += r
		if r > s.MaxRank {
			s.MaxRank = r
		}
	}
	if len(m.blocks) > 0 {
		s.AvgRank = float64(sum) / float64(len(m.blocks))
	}
	for _, id := range m.Tree.Leaves {
		s.NearBlocks += len(m.near[id])
	}
	return s
}

// Bytes returns the deterministic memory footprint of the stored factors,
// nearfield blocks, and tree.
func (m *Matrix) Bytes() int64 {
	var total int64
	for i := range m.blocks {
		total += int64(len(m.blocks[i].t.Data)+len(m.blocks[i].b.Data))*8 + 48
	}
	for _, id := range m.Tree.Leaves {
		for _, blk := range m.near[id] {
			total += int64(len(blk.Data))*8 + 24
		}
	}
	total += m.Tree.Bytes()
	return total
}
