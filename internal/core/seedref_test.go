package core

import (
	"h2ds/internal/kernel"
	"h2ds/internal/mat"
	"h2ds/internal/par"
)

// Level-synchronous reference sweeps: Algorithm 2 as five sweeps with a
// fork/join barrier on every tree level — the original execution the
// task-graph scheduler replaced. It runs the same per-node kernels as the
// scheduler (or, with assemble set, the original assemble-then-multiply
// on-the-fly kernels below), so it is the oracle the bitwise suites pin the
// scheduled applies against.

// refKernels is one apply variant's per-stage kernel table.
type refKernels = [nStages]func(ws *Workspace, w, id int)

// refKernelsFor returns the reference kernel table for an apply variant:
// the production per-node kernels, with the leaf stage carrying the whole
// nearfield one directed block at a time (refLeaf), and with the
// coupling and leaf stages swapped for the assemble-then-multiply ones when
// assemble is set (valid for OnTheFly matrices only).
func refKernelsFor(kind applyKind, assemble bool) refKernels {
	ks := stageKernels[kind]
	ks[stageLeaf] = refLeaf
	if assemble {
		ks[stageCoup], ks[stageLeaf] = assembledKernels[kind][0], assembledKernels[kind][1]
	}
	return ks
}

// refLeaf is the level-synchronous leaf kernel: the leaf expansion
// followed by every Near entry's directed block in list order — the leaf
// stage before the nearfield moved into pair tasks, and the order the pair
// chains must reproduce.
func refLeaf(ws *Workspace, w, id int) {
	stageKernels[ws.kind][stageLeaf](ws, w, id)
	for _, j := range ws.m.Tree.Nodes[id].Near {
		nearKernels[ws.kind](ws, w, id, j)
	}
}

// refSweeps runs the five sweeps level by level on the fork-join runtime:
// upward bottom-to-top, coupling over every node, downward top-to-bottom,
// then the leaf sweep — each phase a barrier.
func refSweeps(ws *Workspace, ks refKernels) {
	m := ws.m
	run := func(nodes []int, fn func(ws *Workspace, w, id int)) {
		par.ForWorker(ws.workers, len(nodes), func(w, k int) { fn(ws, w, nodes[k]) })
	}
	for l := m.Tree.Depth() - 1; l >= 0; l-- {
		run(m.Tree.Levels[l], ks[stageUp])
	}
	par.ForWorker(ws.workers, len(m.Tree.Nodes), func(w, id int) { ks[stageCoup](ws, w, id) })
	for l := 0; l < m.Tree.Depth(); l++ {
		run(m.Tree.Levels[l], ks[stageDown])
	}
	run(m.Tree.Leaves, ks[stageLeaf])
	ws.flushCounters()
	ws.curB, ws.curY = nil, nil
}

// refApplyTo computes y = Â b (Âᵀ b with transpose) on the reference sweeps
// using ws's buffers.
func refApplyTo(m *Matrix, ws *Workspace, y, b []float64, transpose, assemble bool) {
	kind := m.vecKind(transpose)
	m.Tree.PermuteVec(ws.bp, b)
	ws.bind(m, kind)
	ws.curB, ws.curY = ws.bp, ws.yp
	refSweeps(ws, refKernelsFor(kind, assemble))
	m.Tree.UnpermuteVec(y, ws.yp)
}

// refApplyBatchTo computes Y = Â B on the reference sweeps using ws's
// buffers.
func refApplyBatchTo(m *Matrix, ws *Workspace, Y, B *mat.Dense, assemble bool) {
	ws.bindBatch(m, B)
	refSweeps(ws, refKernelsFor(applyBatch, assemble))
	ws.unpermuteBatch(Y)
}

// refApply and refApplyBatch are the allocating conveniences over a fresh
// workspace.
func refApply(m *Matrix, b []float64, transpose, assemble bool) []float64 {
	ws := m.NewWorkspace()
	defer ws.Close()
	y := make([]float64, m.N)
	refApplyTo(m, ws, y, b, transpose, assemble)
	return y
}

func refApplyBatch(m *Matrix, B *mat.Dense, assemble bool) *mat.Dense {
	ws := m.NewWorkspace()
	defer ws.Close()
	Y := mat.NewDense(0, 0)
	refApplyBatchTo(m, ws, Y, B, assemble)
	return Y
}

// assembledKernels[kind] holds the assemble-then-multiply on-the-fly
// {coupling, leaf} kernels: every block is materialized into the worker's
// scratch tile, then multiplied — the path the fused kernels replaced. A
// symmetric kernel's block (i, j) with i > j is assembled as the (j, i)
// tile and applied transposed, the orientation it is stored in.
var assembledKernels = [...][2]func(ws *Workspace, w, id int){
	applyVec:   {coupAssembled, leafAssembled},
	applyTrans: {coupAssembledT, leafAssembledT},
	applyBatch: {coupAssembledB, leafAssembledB},
}

// assembledTile assembles block (i, j) of the coupling (near false) or
// nearfield family into the worker's scratch tile in its stored
// orientation, reporting whether the tile is block (i, j)'s transpose.
func assembledTile(ws *Workspace, w int, near bool, i, j int) (*mat.Dense, bool) {
	m := ws.m
	trans := m.Kern.Symmetric() && i > j
	if trans {
		i, j = j, i
	}
	if near {
		return kernel.Assemble(ws.scratch[w], m.Kern, m.Tree.Points, m.leafRange(i), m.Tree.Points, m.leafRange(j)), trans
	}
	return kernel.Assemble(ws.scratch[w], m.Kern, m.skelPts[i], m.skel[i], m.skelPts[j], m.colSkeleton(j)), trans
}

// assembledVec adds block (i, j) times v into y through assembledTile.
func assembledVec(ws *Workspace, w int, near bool, y []float64, i, j int, v []float64) {
	if tile, trans := assembledTile(ws, w, near, i, j); trans {
		mat.MulTVecAdd(y, tile, v)
	} else {
		mat.MulVecAdd(y, tile, v)
	}
}

// assembledBatch is assembledVec for a block of right-hand sides.
func assembledBatch(ws *Workspace, w int, near bool, y *mat.Dense, i, j int, v *mat.Dense) {
	if tile, trans := assembledTile(ws, w, near, i, j); trans {
		mat.MulTAddTo(y, tile, v)
	} else {
		mat.MulAddTo(y, tile, v)
	}
}

func coupAssembled(ws *Workspace, w, id int) {
	m := ws.m
	gi := seg(ws.g, ws.gOff, id)
	zero(gi)
	if len(gi) == 0 {
		return
	}
	for _, j := range m.Tree.Nodes[id].Interaction {
		if m.colRank(j) == 0 {
			continue
		}
		assembledVec(ws, w, false, gi, id, j, seg(ws.q, ws.qOff, j))
	}
}

func leafAssembled(ws *Workspace, w, id int) {
	m := ws.m
	nd := &m.Tree.Nodes[id]
	yi := ws.curY[nd.Start:nd.End]
	zero(yi)
	if m.ranks[id] > 0 {
		mat.MulVecAdd(yi, m.u[id], seg(ws.g, ws.gOff, id))
	}
	for _, j := range nd.Near {
		nj := &m.Tree.Nodes[j]
		assembledVec(ws, w, true, yi, id, j, ws.curB[nj.Start:nj.End])
	}
}

// coupAssembledT and leafAssembledT serve unsymmetric kernels only: a
// symmetric kernel's transpose runs the forward sweep (Matrix.vecKind).
func coupAssembledT(ws *Workspace, w, id int) {
	m := ws.m
	gi := seg(ws.g, ws.gOff, id)
	zero(gi)
	if len(gi) == 0 {
		return
	}
	for _, j := range m.Tree.Nodes[id].Interaction {
		if m.ranks[j] == 0 {
			continue
		}
		tile := kernel.Assemble(ws.scratch[w], m.Kern, m.skelPts[j], m.skel[j], m.skelPts[id], m.colSkeleton(id))
		mat.MulTVecAdd(gi, tile, seg(ws.q, ws.qOff, j))
	}
}

func leafAssembledT(ws *Workspace, w, id int) {
	m := ws.m
	nd := &m.Tree.Nodes[id]
	yi := ws.curY[nd.Start:nd.End]
	zero(yi)
	if m.colRank(id) > 0 {
		mat.MulVecAdd(yi, m.colBasis(id), seg(ws.g, ws.gOff, id))
	}
	for _, j := range nd.Near {
		nj := &m.Tree.Nodes[j]
		tile := kernel.Assemble(ws.scratch[w], m.Kern, m.Tree.Points, m.leafRange(j), m.Tree.Points, m.leafRange(id))
		mat.MulTVecAdd(yi, tile, ws.curB[nj.Start:nj.End])
	}
}

func coupAssembledB(ws *Workspace, w, id int) {
	m := ws.m
	gi := ws.gB[id]
	zero(gi.Data)
	if gi.Rows == 0 {
		return
	}
	for _, j := range m.Tree.Nodes[id].Interaction {
		if m.colRank(j) == 0 {
			continue
		}
		assembledBatch(ws, w, false, gi, id, j, ws.qB[j])
	}
}

func leafAssembledB(ws *Workspace, w, id int) {
	m := ws.m
	nd := &m.Tree.Nodes[id]
	yi := ws.outRows(w, 0, id)
	zero(yi.Data)
	if m.ranks[id] > 0 {
		mat.MulAddTo(yi, m.u[id], ws.gB[id])
	}
	for _, j := range nd.Near {
		assembledBatch(ws, w, true, yi, id, j, ws.inRows(w, 0, j))
	}
}
