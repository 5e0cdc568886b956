package core

import (
	"fmt"

	"h2ds/internal/kernel"
	"h2ds/internal/mat"
	"h2ds/internal/par"
)

// BlockJacobi is a block-Jacobi preconditioner for regularized kernel
// systems (K + σI): one Cholesky factorization per leaf diagonal block.
// Applying it solves each leaf system independently — embarrassingly
// parallel, and the diagonal blocks are exactly the nearfield self-blocks
// the H² representation already identifies.
//
// It implements the solver package's Operator interface (ApplyTo), so it
// can be passed to solver.PCG directly.
type BlockJacobi struct {
	m       *Matrix
	leaves  []int
	factors []*mat.Cholesky
	workers int
}

// BlockJacobi builds the preconditioner for (K + sigma I). It fails if any
// leaf block is not positive definite at this shift (increase sigma, or use
// an SPD kernel).
func (m *Matrix) BlockJacobi(sigma float64) (*BlockJacobi, error) {
	bj := &BlockJacobi{m: m, leaves: m.Tree.Leaves, workers: m.Cfg.Workers}
	bj.factors = make([]*mat.Cholesky, len(bj.leaves))
	errs := make([]error, len(bj.leaves))
	par.For(m.Cfg.Workers, len(bj.leaves), func(k int) {
		id := bj.leaves[k]
		nd := &m.Tree.Nodes[id]
		blk := kernel.NewBlock(m.Kern, m.Tree.Points, m.leafRange(id), m.Tree.Points, m.leafRange(id))
		for i := 0; i < blk.Rows; i++ {
			blk.Set(i, i, blk.At(i, i)+sigma)
		}
		ch, err := mat.NewCholesky(blk)
		if err != nil {
			errs[k] = fmt.Errorf("core: leaf %d (size %d): %w", id, nd.Size(), err)
			return
		}
		bj.factors[k] = ch
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return bj, nil
}

// ApplyTo solves the block-diagonal system: y = M⁻¹ b with
// M = blockdiag(K_leaf + σI). y and b are in the caller's original point
// ordering, matching Matrix.ApplyTo; they may alias. It draws its width-1
// permutation panels from the matrix's workspace pool and solves each leaf
// in place, so repeated applications inside PCG are allocation-free in
// steady state.
func (bj *BlockJacobi) ApplyTo(y, b []float64) {
	m := bj.m
	if len(y) != m.N || len(b) != m.N {
		panic(fmt.Sprintf("core: blockjacobi length mismatch y=%d b=%d n=%d", len(y), len(b), m.N))
	}
	ws := m.getWorkspace()
	ws.check(m, par.Resolve(bj.workers))
	ws.ensureWidth(1)
	bp, yp := ws.bp, ws.yp
	m.Tree.PermuteVec(bp, b)
	ws.pool.ForWorker(len(bj.leaves), func(_, k int) {
		nd := &m.Tree.Nodes[bj.leaves[k]]
		bj.factors[k].SolveTo(yp[nd.Start:nd.End], bp[nd.Start:nd.End])
	})
	m.Tree.UnpermuteVec(y, yp)
	m.putWorkspace(ws)
}

// Bytes returns the preconditioner's deterministic memory footprint.
func (bj *BlockJacobi) Bytes() int64 {
	var b int64
	for _, ch := range bj.factors {
		b += int64(len(ch.L.Data))*8 + 24
	}
	return b
}
