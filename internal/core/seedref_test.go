package core

import (
	"h2ds/internal/kernel"
	"h2ds/internal/mat"
)

// Level-synchronous reference sweeps: Algorithm 2 as five sweeps with a
// barrier on every tree level — the original execution the task-graph
// scheduler replaced. It runs the same per-node kernels as the
// scheduler (or, with assemble set, the original assemble-then-multiply
// on-the-fly kernels below), so it is the oracle the bitwise suites pin the
// scheduled applies against.

// refKernels is the per-stage kernel table the reference sweeps run.
type refKernels = [nStages]func(ws *Workspace, w, id int)

// refKernelsFor returns the reference kernel table: the production per-node
// kernels, with the leaf stage carrying the whole nearfield one directed
// block at a time (refLeaf), and with the coupling and leaf stages swapped
// for the assemble-then-multiply ones when assemble is set (valid for
// OnTheFly matrices only). Every table serves every width and direction:
// the call's bind sets both.
func refKernelsFor(assemble bool) refKernels {
	ks := refKernels{(*Workspace).upNode, (*Workspace).coupNode, (*Workspace).downNode, refLeaf}
	if assemble {
		ks[stageCoup], ks[stageLeaf] = coupAssembled, leafAssembled
	}
	return ks
}

// refLeaf is the level-synchronous leaf kernel: the leaf expansion
// followed by every Near entry's directed block in list order — the leaf
// stage before the nearfield moved into pair tasks, and the order the pair
// chains must reproduce.
func refLeaf(ws *Workspace, w, id int) {
	ws.leafNode(w, id)
	for _, j := range ws.m.Tree.Nodes[id].Near {
		ws.near(w, id, j)
	}
}

// refSweeps runs the five sweeps level by level on the workspace's pool:
// upward bottom-to-top, coupling over every node, downward top-to-bottom,
// then the leaf sweep — each phase a barrier.
func refSweeps(ws *Workspace, ks refKernels) {
	m := ws.m
	run := func(nodes []int, fn func(ws *Workspace, w, id int)) {
		ws.pool.ForWorker(len(nodes), func(w, k int) { fn(ws, w, nodes[k]) })
	}
	for l := m.Tree.Depth() - 1; l >= 0; l-- {
		run(m.Tree.Levels[l], ks[stageUp])
	}
	ws.pool.ForWorker(len(m.Tree.Nodes), func(w, id int) { ks[stageCoup](ws, w, id) })
	for l := 0; l < m.Tree.Depth(); l++ {
		run(m.Tree.Levels[l], ks[stageDown])
	}
	run(m.Tree.Leaves, ks[stageLeaf])
	ws.flushCounters()
}

// refApplyTo computes y = Â b (Âᵀ b with transpose) at width 1 on the
// reference sweeps using ws's buffers.
func refApplyTo(m *Matrix, ws *Workspace, y, b []float64, transpose, assemble bool) {
	ws.bindVec(m, b, transpose)
	refSweeps(ws, refKernelsFor(assemble))
	m.Tree.UnpermuteVec(y, ws.yp)
}

// refApplyBatchTo computes Y = Â B on the reference sweeps using ws's
// buffers.
func refApplyBatchTo(m *Matrix, ws *Workspace, Y, B *mat.Dense, assemble bool) {
	ws.bindBatch(m, B)
	refSweeps(ws, refKernelsFor(assemble))
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

// coupAssembled and leafAssembled are the assemble-then-multiply on-the-fly
// coupling and leaf kernels: every block is materialized into the worker's
// scratch tile, then multiplied — the path the fused kernels replaced.

// assembledTile assembles block (i, j) of the coupling (near false) or
// nearfield family into the worker's scratch tile in its stored
// orientation, reporting whether the tile is block (i, j)'s transpose: a
// symmetric kernel's block (i, j) with i > j is assembled as the (j, i)
// tile.
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

// assembledMul adds the block that carries input node j into output node
// i under the call's direction — block (i, j), or block (j, i) transposed
// for the transpose product — times v into y, through assembledTile.
func assembledMul(ws *Workspace, w int, near bool, y *mat.Dense, i, j int, v *mat.Dense) {
	if ws.transposed {
		i, j = j, i
	}
	tile, trans := assembledTile(ws, w, near, i, j)
	for t := range y.Rows {
		if trans != ws.transposed {
			mat.MulTVecAdd(y.Row(t), tile, v.Row(t))
		} else {
			mat.MulVecAdd(y.Row(t), tile, v.Row(t))
		}
	}
}

func coupAssembled(ws *Workspace, w, id int) {
	gi := ws.out.panel[id]
	zero(gi.Data)
	if gi.Cols == 0 {
		return
	}
	for _, j := range ws.m.Tree.Nodes[id].Interaction {
		if qj := ws.in.panel[j]; qj.Cols > 0 {
			assembledMul(ws, w, false, gi, id, j, qj)
		}
	}
}

func leafAssembled(ws *Workspace, w, id int) {
	yi := ws.outRows(id)
	zero(yi.Data)
	if gi := ws.out.panel[id]; gi.Cols > 0 {
		for t := range gi.Rows {
			mat.MulVecAdd(yi.Row(t), ws.out.basis[id], gi.Row(t))
		}
	}
	for _, j := range ws.m.Tree.Nodes[id].Near {
		assembledMul(ws, w, true, yi, id, j, ws.inRows(j))
	}
}
