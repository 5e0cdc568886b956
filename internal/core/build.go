package core

import (
	"context"
	"runtime/pprof"
	"time"

	"h2ds/internal/interp"
	"h2ds/internal/kernel"
	"h2ds/internal/mat"
	"h2ds/internal/par"
	"h2ds/internal/sample"
)

// swapped reverses a kernel's arguments: swapped{k}(x, y) = k(y, x). The
// unsymmetric construction uses it to assemble transposed farfield panels
// for the column-basis IDs.
type swapped struct{ k kernel.Pairwise }

func (s swapped) EvalPair(x, y []float64) float64 { return s.k.EvalPair(y, x) }
func (s swapped) Symmetric() bool                 { return s.k.Symmetric() }
func (s swapped) Name() string                    { return s.k.Name() + "-swapped" }

// buildPhase runs fn with a pprof label attributing its CPU samples to the
// named construction phase, so -pprof profiles of a serving process split
// build cost by phase. Labels attach to the calling goroutine (which
// participates in every pool loop as worker 0); pool workers spawned before
// the phase keep their own labels.
func buildPhase(name string, fn func()) {
	pprof.Do(context.Background(), pprof.Labels("h2phase", name), func(context.Context) { fn() })
}

// buildDataDriven runs the paper's new construction (§II-A): hierarchical
// sampling (Algorithm 1) followed by a bottom-to-top sweep of row
// interpolative decompositions that yields nested bases whose skeletons are
// actual dataset points — making every coupling block a kernel submatrix.
// A hierarchy already set by a construction-cache hit is used as is, so no
// sample time is charged. Every node loop runs on pool.
func (m *Matrix) buildDataDriven(pool *par.Pool) {
	if m.hier == nil {
		t0 := time.Now()
		buildPhase("sample", func() {
			m.hier = sample.Run(m.Tree, m.Cfg.Sampler, m.Cfg.SampleBudget, pool)
		})
		m.stats.Phases.SampleNS = time.Since(t0).Nanoseconds()
	}

	t1 := time.Now()
	// Per-node truncation runs tighter than the target accuracy because
	// truncation errors accumulate across tree levels and interaction
	// blocks; the factor is calibrated so the 12-row estimate lands around
	// Tol (see EXPERIMENTS.md).
	idTol := m.Cfg.Tol / 20
	// Bottom-to-top: leaves compress their own points; internal nodes
	// compress the union of their children's skeletons. Nodes on a level
	// are independent. For unsymmetric kernels a second ID on the
	// transposed farfield panel produces the column-side generators
	// (V, W); for symmetric kernels the row side serves both roles.
	buildPhase("basis", func() {
		for l := m.Tree.Depth() - 1; l >= 0; l-- {
			level := m.Tree.Levels[l]
			node := func(k int, cpqr *par.Pool) {
				id := level[k]
				nd := &m.Tree.Nodes[id]
				m.skelPts[id] = m.Tree.Points
				ystar := m.hier.YStar[id]

				m.buildNodeSide(id, nd.IsLeaf, ystar, m.Kern, idTol,
					m.skel, m.ranks, m.u, m.trans, cpqr)
				if !m.sharedBasis {
					m.buildNodeSide(id, nd.IsLeaf, ystar, swapped{m.Kern}, idTol,
						m.colSkel, m.colRanks, m.v, m.wTrans, cpqr)
				}
			}
			if len(level)*2 <= pool.Workers() {
				// Near the root there are fewer nodes than workers, so
				// per-node parallelism starves the pool exactly where the
				// panels are largest. Iterate the nodes sequentially and
				// hand the whole pool to each node's blocked CPQR instead
				// (par.Pool serves one client at a time, so the pool must
				// never be passed down from inside pool.For).
				for k := range level {
					node(k, pool)
				}
			} else {
				pool.For(len(level), func(k int) { node(k, nil) })
			}
		}
	})
	m.stats.Phases.BasisNS = time.Since(t1).Nanoseconds()
}

// buildNodeSide runs one side (row or column) of the data-driven node
// compression: assemble the farfield panel K(candidates, Y*) under kern
// (the swapped kernel for the column side), row-ID it, and record the
// skeleton, rank, and basis/transfer factor into the given side arrays.
// Assembly and factorization time land in the matrix's phase counters
// (assembly everywhere, ID for leaves, transfer for internal nodes).
func (m *Matrix) buildNodeSide(id int, isLeaf bool, ystar []int, kern kernel.Pairwise,
	idTol float64, skel [][]int, ranks []int, basis, trans []*mat.Dense,
	pool *par.Pool) {

	var cand []int
	if isLeaf {
		cand = m.leafRange(id)
	} else {
		for _, c := range m.Tree.Nodes[id].Children {
			cand = append(cand, skel[c]...)
		}
	}
	if len(ystar) == 0 {
		// No farfield anywhere above this node: rank 0 basis.
		ranks[id] = 0
		skel[id] = nil
		if isLeaf {
			basis[id] = mat.NewDense(len(cand), 0)
		} else {
			trans[id] = mat.NewDense(len(cand), 0)
		}
		return
	}
	ta := time.Now()
	a := kernel.NewBlock(kern, m.Tree.Points, cand, m.Tree.Points, ystar)
	ti := time.Now()
	m.phaseAssembly.Add(ti.Sub(ta).Nanoseconds())
	id2 := mat.NewRowID(a, idTol, 0, pool)
	if isLeaf {
		m.phaseID.Add(time.Since(ti).Nanoseconds())
	} else {
		m.phaseTransfer.Add(time.Since(ti).Nanoseconds())
	}
	sel := make([]int, id2.Rank)
	for s, loc := range id2.Skel {
		sel[s] = cand[loc]
	}
	skel[id] = sel
	ranks[id] = id2.Rank
	if isLeaf {
		basis[id] = id2.T
	} else {
		trans[id] = id2.T
	}
}

// buildInterpolation runs the tensor-grid Chebyshev baseline (§I-B2):
// every node gets a p-per-direction grid over its bounding box; leaf bases
// are Lagrange evaluations at the node's points and transfers re-evaluate
// the parent's polynomials on the child grids (exact, preserving nesting).
// The rank is p^d for every node — the curse of dimensionality.
func (m *Matrix) buildInterpolation(pool *par.Pool) {
	t1 := time.Now()
	p := m.p
	grids := make([]*interp.Grid, len(m.Tree.Nodes))
	// Grids first (needed by both leaf bases and parent transfers).
	pool.For(len(m.Tree.Nodes), func(id int) {
		grids[id] = interp.NewGrid(m.Tree.Nodes[id].Box, p)
	})
	rank := grids[0].Rank()
	gridIdx := make([]int, rank)
	for i := range gridIdx {
		gridIdx[i] = i
	}
	pool.For(len(m.Tree.Nodes), func(id int) {
		nd := &m.Tree.Nodes[id]
		m.ranks[id] = rank
		m.skel[id] = gridIdx
		m.skelPts[id] = grids[id].Points()
		if nd.IsLeaf {
			m.u[id] = grids[id].BasisMatrix(m.Tree.Points, m.leafRange(id))
			return
		}
		// Stack the children transfer blocks in child order.
		tr := mat.NewDense(len(nd.Children)*rank, rank)
		for c, cid := range nd.Children {
			tm := interp.TransferMatrix(grids[id], grids[cid])
			for r := 0; r < rank; r++ {
				copy(tr.Row(c*rank+r), tm.Row(r))
			}
		}
		m.trans[id] = tr
	})
	m.stats.Phases.BasisNS = time.Since(t1).Nanoseconds()
}
