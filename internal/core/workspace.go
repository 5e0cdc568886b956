package core

import (
	"fmt"

	"h2ds/internal/kernel"
	"h2ds/internal/mat"
	"h2ds/internal/par"
)

// Workspace holds every buffer a matvec needs, so repeated products — the
// iterative-solve workload the paper motivates the normal mode with (§VI-B)
// — touch the allocator only on the first call. It keeps one slab set per
// width k: two N-by-k permutation panels and two rank-by-k slabs, one per
// rank side, carved into per-node panels via prefix sums over the node
// ranks (contiguous by construction, one cache-friendly block per level).
// Every panel is stored column by column, so a width-k product is k calls
// to the vector primitives, one per contiguous column: a node's rank panel
// is one contiguous run of its slab, and the permutation panels are laid
// out leaf by leaf, leaf ℓ owning [Start·k, End·k) with column t at
// Start·k + t·(End−Start). A vector is width 1, where the layout is the
// plain permuted vector; a batch reshapes the set to its width, growing it
// only past the widest width seen. It also owns the per-worker scratch
// tiles of the on-the-fly mode.
//
// Concurrency contract: a Workspace may be used by ONE goroutine at a time.
// Concurrent callers either create one workspace each (NewWorkspace) or use
// the convenience entry points (ApplyTo, ApplyTranspose, ApplyBatchTo),
// which draw from an internal sync.Pool — concurrent requests then cost at
// most one workspace per in-flight call, reused across calls.
//
// Every apply — vector, transpose, batch, and both halves of the sharded
// apply — runs as one drain of the dependency-driven task graph (see
// schedule.go) on the workspace's persistent par.Pool, at every worker
// count; one worker drains the same graph serially. All of them run the
// same per-node kernels over width-k panels, k = 1 for vectors. Per-call
// parameters (the width, the direction's role binding, the coupling mask)
// travel through workspace fields and the drain loop is bound once at
// construction, so the steady-state matvec makes zero allocations.
type Workspace struct {
	m *Matrix

	// pool is the workspace's persistent parallel runtime: the same
	// long-lived worker goroutines across successive applies. Workspaces are
	// checked out by one goroutine at a time (the pool's contract), so
	// concurrent applies each drive their own pool. Close releases it; the
	// next apply recreates it.
	pool    *par.Pool
	workers int

	// Per-worker tile buffers (grown on demand when the configured worker
	// count rises). The fused on-the-fly kernels use them as one-row panels
	// and for gathered coordinate panels.
	scratch []*mat.Dense

	// ctr holds per-worker instrumentation, padded to ctrStride int64s per
	// worker to keep workers off each other's cache lines (layout below).
	// Flushed into the matrix's atomics once per apply.
	ctr []int64

	// ---- the slab set, shaped for width k ----
	k      int
	bp, yp []float64 // N-by-k permuted input and output panels, leaf by leaf

	// Prefix sums over the row-side and column-side ranks, indexed by node
	// id: node i's panel is [off[i]·k, off[i+1]·k) of its side's slab. For
	// shared bases the two offset tables are the same slice; the slabs are
	// always distinct because q and g live simultaneously.
	//
	// Every panel header is a k-by-len mat.Dense whose row t is column t of
	// the panel: the per-node rank panels, and the per-leaf views of bp and
	// yp (inRows, outRows; internal nodes have none).
	rowOff, colOff     []int
	rowSlab, colSlab   []float64
	rowPanel, colPanel []*mat.Dense // per-node headers re-pointed into the slabs
	bpRows, ypRows     []mat.Dense  // per-leaf views of bp and yp, indexed by node id

	// ---- per-call role binding read by the task kernels ----
	// in is the input side (its panels are the upward sweep's q), out the
	// output side (its panels are the coupling results g).
	in, out    side
	transposed bool

	// coupMask, when non-nil, restricts the coupling stage to the marked
	// nodes (the sharded apply); scatter additionally skips the downward and
	// leaf stages. Masked tasks still release their dependents. mask is the
	// reusable backing array.
	coupMask []bool
	scatter  bool
	mask     []bool

	// drain is the runSched method value, bound once so handing it to the
	// pool allocates nothing; sched is the resettable task-queue state.
	drain func(worker, slot int)
	sched scheduler
}

// side is one side of the factorization as a sweep reads it: per node, the
// leaf basis, the stacked children transfer blocks, and the rank-by-k
// coefficient panel (k-by-rank, one column per row).
type side struct {
	basis, trans []*mat.Dense
	panel        []*mat.Dense
}

// Sweep stages of Algorithm 2, in task-graph order. stageLeaf covers stage 5:
// the leaf expansion task and the nearfield pair tasks behind it; stages 1–2
// share the upward kernel.
const (
	stageUp = iota
	stageCoup
	stageDown
	stageLeaf
	nStages
)

// NewWorkspace allocates a workspace sized for m's tree and ranks, with its
// slab set at width 1. Reuse it across products from a single goroutine;
// for ad-hoc calls prefer ApplyTo, which pools workspaces internally.
func (m *Matrix) NewWorkspace() *Workspace {
	nNodes := len(m.Tree.Nodes)
	ws := &Workspace{m: m}
	ws.rowOff = make([]int, nNodes+1)
	for i := 0; i < nNodes; i++ {
		ws.rowOff[i+1] = ws.rowOff[i] + m.ranks[i]
	}
	if m.sharedBasis {
		ws.colOff = ws.rowOff
	} else {
		ws.colOff = make([]int, nNodes+1)
		for i := 0; i < nNodes; i++ {
			ws.colOff[i+1] = ws.colOff[i] + m.colRank(i)
		}
	}
	ws.bpRows, ws.ypRows = make([]mat.Dense, nNodes), make([]mat.Dense, nNodes)
	ws.rowPanel = make([]*mat.Dense, nNodes)
	ws.colPanel = make([]*mat.Dense, nNodes)
	for i := 0; i < nNodes; i++ {
		ws.rowPanel[i], ws.colPanel[i] = &mat.Dense{}, &mat.Dense{}
	}
	ws.ensureWidth(1)
	ws.workers = par.Resolve(m.Cfg.Workers)
	ws.pool = par.NewPool(ws.workers)
	ws.growScratch(ws.workers)
	ws.drain = ws.runSched
	return ws
}

// Per-worker counter layout within Workspace.ctr. The first three slots are
// the on-the-fly instrumentation; the next four accumulate per-stage task
// nanoseconds, indexed ctrUpNS+stage.
const (
	ctrOtfNS  = 0
	ctrHit    = 1
	ctrMiss   = 2
	ctrUpNS   = 3
	ctrCoupNS = ctrUpNS + stageCoup
	ctrDownNS = ctrUpNS + stageDown
	ctrLeafNS = ctrUpNS + stageLeaf
	ctrStride = 8 // one 64-byte cache line per worker
)

// growScratch ensures at least n per-worker tile buffers and counter lines
// exist.
func (ws *Workspace) growScratch(n int) {
	for len(ws.scratch) < n {
		ws.scratch = append(ws.scratch, mat.NewDense(0, 0))
	}
	if len(ws.ctr) < n*ctrStride {
		ws.ctr = append(ws.ctr, make([]int64, n*ctrStride-len(ws.ctr))...)
	}
}

// flushCounters folds the per-worker counters into the matrix's cumulative
// sweep stats and zeroes them for the next apply. Each total lands in its
// destination with a single atomic add, so overlapping applies on distinct
// workspaces of one matrix interleave whole-apply contributions, never
// partial ones.
func (ws *Workspace) flushCounters() {
	var ns, hit, miss, up, coup, down, leaf int64
	for base := 0; base < len(ws.ctr); base += ctrStride {
		ns += ws.ctr[base+ctrOtfNS]
		hit += ws.ctr[base+ctrHit]
		miss += ws.ctr[base+ctrMiss]
		up += ws.ctr[base+ctrUpNS]
		coup += ws.ctr[base+ctrCoupNS]
		down += ws.ctr[base+ctrDownNS]
		leaf += ws.ctr[base+ctrLeafNS]
		for s := ctrOtfNS; s <= ctrLeafNS; s++ {
			ws.ctr[base+s] = 0
		}
	}
	if ns != 0 {
		ws.m.sweeps.otfAssembly.Add(ns)
	}
	if hit != 0 {
		ws.m.sweeps.hybridHits.Add(hit)
	}
	if miss != 0 {
		ws.m.sweeps.hybridMisses.Add(miss)
	}
	if up|coup|down|leaf != 0 {
		ws.m.sweeps.recordStages(up, coup, down, leaf)
	}
}

// check validates the workspace against the matrix it is about to serve and
// adapts to the matrix's resolved worker count: the pool is (re)created when
// it was closed or when the count moved (e.g. under a GOMAXPROCS change).
func (ws *Workspace) check(m *Matrix) {
	if ws.m != m {
		panic("core: workspace used with a different Matrix than it was created for")
	}
	workers := par.Resolve(m.Cfg.Workers)
	ws.workers = workers
	if ws.pool == nil || ws.pool.Workers() != workers {
		if ws.pool != nil {
			ws.pool.Close()
		}
		ws.pool = par.NewPool(workers)
	}
	ws.growScratch(workers)
}

// ensureWidth shapes the slab set for width k: the N-by-k permutation
// panels, one slab per rank side, and the panel headers re-pointed into
// them. Buffers only grow, so alternating widths reuse them. The headers
// are read-only during an apply, so tasks on different workers share them.
func (ws *Workspace) ensureWidth(k int) {
	if k == ws.k {
		return
	}
	m := ws.m
	nNodes := len(m.Tree.Nodes)
	ws.bp = growTo(ws.bp, m.N*k)
	ws.yp = growTo(ws.yp, m.N*k)
	ws.rowSlab = growTo(ws.rowSlab, ws.rowOff[nNodes]*k)
	ws.colSlab = growTo(ws.colSlab, ws.colOff[nNodes]*k)
	for id := 0; id < nNodes; id++ {
		carve(ws.rowPanel[id], ws.rowSlab, ws.rowOff, id, k)
		carve(ws.colPanel[id], ws.colSlab, ws.colOff, id, k)
	}
	for _, id := range m.Tree.Leaves {
		nd := &m.Tree.Nodes[id]
		leafView(&ws.bpRows[id], ws.bp, nd.Start, nd.End, k)
		leafView(&ws.ypRows[id], ws.yp, nd.Start, nd.End, k)
	}
	ws.k = k
}

// growTo returns s resliced to length n, reallocated only when its capacity
// is short.
func growTo(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// carve points header p at node id's column-major rank-by-k panel of slab.
func carve(p *mat.Dense, slab []float64, off []int, id, k int) {
	p.Rows, p.Cols = k, off[id+1]-off[id]
	p.Data = slab[off[id]*k : off[id+1]*k]
}

// leafView points header v at the column-major panel of the leaf holding
// points [start, end) in the leaf-by-leaf panel s (shared backing, no copy).
func leafView(v *mat.Dense, s []float64, start, end, k int) {
	v.Rows, v.Cols = k, end-start
	v.Data = s[start*k : end*k]
}

// bind prepares ws for one width-k apply on m: check, shape the slab set,
// then bind the direction's roles. The forward product reads the column
// generators (V/W) on the input side and the row generators (U/R) on the
// output side; the transpose exchanges them and applies each coupling and
// nearfield block (j, i) transposed (key). Every block of a symmetric
// kernel is summed in its one stored orientation, so its transpose would
// repeat the forward sweep's arithmetic exactly (Âᵀb ≡ Âb, bit for bit): it
// binds the forward roles, pair twins included.
func (ws *Workspace) bind(m *Matrix, k int, transpose bool) {
	ws.check(m)
	ws.ensureWidth(k)
	row := side{m.u, m.trans, ws.rowPanel}
	col := side{m.u, m.trans, ws.colPanel}
	if !m.sharedBasis {
		col.basis, col.trans = m.v, m.wTrans
	}
	ws.transposed = transpose && !m.Kern.Symmetric()
	if ws.transposed {
		ws.in, ws.out = row, col
	} else {
		ws.in, ws.out = col, row
	}
}

// bindVec binds ws for a width-1 product and permutes b (original point
// ordering) into the input panel.
func (ws *Workspace) bindVec(m *Matrix, b []float64, transpose bool) {
	ws.bind(m, 1, transpose)
	m.Tree.PermuteVec(ws.bp, b)
}

// Close releases the workspace's persistent worker goroutines. It is safe
// to keep using the workspace afterwards: the next apply recreates the
// pool. Unclosed workspaces release their goroutines via a finalizer when
// garbage-collected, so Close is an optimization for deterministic
// teardown, not a correctness requirement.
func (ws *Workspace) Close() {
	if ws.pool != nil {
		ws.pool.Close()
		ws.pool = nil
	}
}

// Bytes returns the deterministic payload size of the slab set at its
// current width (both permutation panels plus both rank slabs): at width 1,
// the figure MemoryStats.Workspace reports. Scratch tiles are accounted
// separately (MemoryStats.ScratchPerWorker).
func (ws *Workspace) Bytes() int64 {
	return int64(len(ws.bp)+len(ws.yp)+len(ws.rowSlab)+len(ws.colSlab)) * 8
}

// getWorkspace draws a workspace from the matrix's pool, creating one on
// first use.
func (m *Matrix) getWorkspace() *Workspace {
	if ws, ok := m.wsPool.Get().(*Workspace); ok {
		return ws
	}
	return m.NewWorkspace()
}

// putWorkspace returns a workspace to the pool.
func (m *Matrix) putWorkspace(ws *Workspace) { m.wsPool.Put(ws) }

// workspaceBytes is the deterministic size of one workspace's slab set at
// width 1, computed from the representation shape without allocating one.
func (m *Matrix) workspaceBytes() int64 {
	var rows, cols int
	for i := range m.Tree.Nodes {
		rows += m.ranks[i]
		cols += m.colRank(i)
	}
	return int64(2*m.N+rows+cols) * 8
}

// ApplyToWith computes y = Â b into y (original point ordering) using the
// caller-owned workspace: zero allocations in steady state. y and b must
// both have length N; they may alias (the product round-trips through the
// workspace's permutation panels).
func (m *Matrix) ApplyToWith(ws *Workspace, y, b []float64) {
	if len(y) != m.N || len(b) != m.N {
		panic(fmt.Sprintf("core: apply length mismatch y=%d b=%d n=%d", len(y), len(b), m.N))
	}
	m.applyVecWith(ws, y, b, false)
}

// ApplyTransposeToWith computes y = Âᵀ b into y using the caller-owned
// workspace. y and b must both have length N; they may alias.
func (m *Matrix) ApplyTransposeToWith(ws *Workspace, y, b []float64) {
	if len(y) != m.N || len(b) != m.N {
		panic(fmt.Sprintf("core: applyTranspose length mismatch y=%d b=%d n=%d", len(y), len(b), m.N))
	}
	m.applyVecWith(ws, y, b, true)
}

// applyVecWith runs the five sweeps of Algorithm 2 at width 1 with all state
// drawn from ws:
//
//  1. leaf horizontal sweep    q_i = V_iᵀ b_i
//  2. bottom-to-top sweep      q_i = Σ_c W_cᵀ q_c
//  3. horizontal coupling      g_i = Σ_{j ∈ IL(i)} B_{i,j} q_j
//  4. top-to-bottom sweep      g_c += R_c g_i
//  5. leaf horizontal sweep    y_i = U_i g_i + Σ_{j ∈ near(i)} K(X_i,X_j) b_j
//
// With transpose the roles exchange (bind): the upward sweep goes through
// U/R, couplings apply B_{j,i}ᵀ, and the downward and leaf sweeps go
// through V/W.
func (m *Matrix) applyVecWith(ws *Workspace, y, b []float64, transpose bool) {
	ws.bindVec(m, b, transpose)
	ws.runScheduled()
	m.Tree.UnpermuteVec(y, ws.yp)
}

// ApplyBatchToWith computes Y = Â B for k right-hand sides stored as the
// columns of the N-by-k matrix B, using the caller-owned workspace. Y is
// reshaped to N-by-k; Y and B may alias. The five sweeps run once with
// width-k node panels: each stored block is applied to the k columns back
// to back while it is still in cache, and in on-the-fly mode each tile row
// is evaluated once for the whole batch. Every column runs the vector
// primitives, so column j of Y is the vector apply of column j of B, bit
// for bit, on any input.
func (m *Matrix) ApplyBatchToWith(ws *Workspace, Y, B *mat.Dense) {
	if B.Rows != m.N {
		panic(fmt.Sprintf("core: applyBatch rows %d want %d", B.Rows, m.N))
	}
	ws.bindBatch(m, B)
	ws.runScheduled()
	ws.unpermuteBatch(Y)
}

// bindBatch binds ws for a forward product of B's columns and permutes B's
// rows into the input panel.
func (ws *Workspace) bindBatch(m *Matrix, B *mat.Dense) {
	ws.bind(m, B.Cols, false)
	ws.permuteRows(B, false)
}

// unpermuteBatch reshapes Y to N-by-k and un-permutes the output panel's
// rows into it.
func (ws *Workspace) unpermuteBatch(Y *mat.Dense) {
	Y.Reshape(ws.m.N, ws.k)
	ws.permuteRows(Y, true)
}

// permuteRows transposes between the row-major N-by-k panel a (original
// point ordering) and the leaf-by-leaf column-major panels: row perm[r] of a
// becomes permuted row r of bp, or with inverse permuted row r of yp
// becomes row perm[r] of a.
func (ws *Workspace) permuteRows(a *mat.Dense, inverse bool) {
	m, k := ws.m, ws.k
	for _, id := range m.Tree.Leaves {
		nd := &m.Tree.Nodes[id]
		p := ws.inRows(id)
		if inverse {
			p = ws.outRows(id)
		}
		for t := range k {
			col := p.Row(t)
			for r, orig := range m.Tree.Perm[nd.Start:nd.End] {
				if inverse {
					a.Data[orig*k+t] = col[r]
				} else {
					col[r] = a.Data[orig*k+t]
				}
			}
		}
	}
}

// outRows and inRows view leaf id's column-major panel of the output and
// input points.
func (ws *Workspace) outRows(id int) *mat.Dense { return &ws.ypRows[id] }

func (ws *Workspace) inRows(id int) *mat.Dense { return &ws.bpRows[id] }

// runStage runs one (node, stage) task's kernel.
func (ws *Workspace) runStage(stage, w, id int) {
	switch stage {
	case stageUp:
		ws.upNode(w, id)
	case stageCoup:
		ws.coupNode(w, id)
	case stageDown:
		ws.downNode(w, id)
	default:
		ws.leafNode(w, id)
	}
}

// upNode is stages 1–2: a leaf projects its input rows through the
// input-side basis, q_i = V_iᵀ B_i; an internal node combines its children
// through the stacked input-side transfer blocks, q_i = Σ_c W_cᵀ q_c. Like
// every stage kernel, it runs the vector product once per panel column.
func (ws *Workspace) upNode(_, id int) {
	nd := &ws.m.Tree.Nodes[id]
	qi := ws.in.panel[id]
	zero(qi.Data)
	if qi.Cols == 0 {
		return
	}
	if nd.IsLeaf {
		bi := ws.inRows(id)
		for t := range qi.Rows {
			mat.MulTVecAdd(qi.Row(t), ws.in.basis[id], bi.Row(t))
		}
		return
	}
	off := 0
	for _, c := range nd.Children {
		qc := ws.in.panel[c]
		wc := childTransfer(ws.in.trans[id], off, qc.Cols)
		for t := range qc.Rows {
			mat.MulTVecAdd(qi.Row(t), &wc, qc.Row(t))
		}
		off += qc.Cols
	}
}

// coupNode is stage 3: g_i = Σ_{j ∈ IL(i)} B_{i,j} q_j, one stored-block
// application or fused evaluation per block for all k columns, each block
// in its stored orientation (block).
func (ws *Workspace) coupNode(w, id int) {
	m := ws.m
	gi := ws.out.panel[id]
	zero(gi.Data)
	if gi.Cols == 0 {
		return
	}
	for _, j := range m.Tree.Nodes[id].Interaction {
		qj := ws.in.panel[j]
		if qj.Cols == 0 {
			continue
		}
		a, b, trans := ws.key(m.coup, id, j)
		ws.block(w, false, gi, a, b, trans, qj)
	}
}

// downNode is stage 4: g_c += R_c g_i through the output-side transfer
// blocks, parents writing only their own children's panels.
func (ws *Workspace) downNode(_, id int) {
	nd := &ws.m.Tree.Nodes[id]
	gi := ws.out.panel[id]
	if nd.IsLeaf || gi.Cols == 0 {
		return
	}
	off := 0
	for _, c := range nd.Children {
		gc := ws.out.panel[c]
		rc := childTransfer(ws.out.trans[id], off, gc.Cols)
		for t := range gc.Rows {
			mat.MulVecAdd(gc.Row(t), &rc, gi.Row(t))
		}
		off += gc.Cols
	}
}

// childTransfer views rows [off, off+rank) of a node's stacked transfer
// block: one child's transfer matrix, a contiguous run of the row-major
// data, so the header needs no copy and stays on the caller's stack.
func childTransfer(tr *mat.Dense, off, rank int) mat.Dense {
	return mat.Dense{Rows: rank, Cols: tr.Cols, Data: tr.Data[off*tr.Cols : (off+rank)*tr.Cols]}
}

// leafNode is stage 5, farfield half: Y_i = U_i G_i through the output-side
// basis. The nearfield half runs as pair tasks (pairTask) chained behind it.
func (ws *Workspace) leafNode(_, id int) {
	yi := ws.outRows(id)
	zero(yi.Data)
	if gi := ws.out.panel[id]; gi.Cols > 0 {
		for t := range gi.Rows {
			mat.MulVecAdd(yi.Row(t), ws.out.basis[id], gi.Row(t))
		}
	}
}

// key returns the stored key (a, b) of the block that carries input node j
// into output node i under the call's direction, and whether it applies
// transposed: block (i, j) forward, block (j, i) transposed for the
// transpose product.
func (ws *Workspace) key(s *BlockStore, i, j int) (a, b int, trans bool) {
	if ws.transposed {
		a, b, trans = s.key(j, i)
		return a, b, !trans
	}
	return s.key(i, j)
}

// block adds one coupling (near false) or nearfield block, applied forward
// or transposed, into y: Y += B_{a,b} V, or Y += B_{a,b}ᵀ V with trans.
// (a, b) is the block's stored key, so every block is summed in one
// orientation in every memory mode: a stored payload is multiplied in place
// (MulVecAdd / MulTVecAdd per column), and an unstored one is evaluated by
// the fused kernel of the same product (BlockMulAdd / BlockTMulAdd), which
// is bitwise-identical to it.
func (ws *Workspace) block(w int, near bool, y *mat.Dense, a, b int, trans bool, v *mat.Dense) {
	m := ws.m
	ctr := ws.ctr[w*ctrStride : (w+1)*ctrStride]
	if blk := m.store(near).Get(a, b); blk != nil {
		ctr[ctrHit]++
		for t := range y.Rows {
			if trans {
				mat.MulTVecAdd(y.Row(t), blk, v.Row(t))
			} else {
				mat.MulVecAdd(y.Row(t), blk, v.Row(t))
			}
		}
		return
	}
	ctr[ctrMiss]++
	t := nowNS()
	x, rows, yp, cols := m.blockPoints(near, a, b)
	if trans {
		kernel.BlockTMulAdd(y, m.Kern, x, rows, yp, cols, v, ws.scratch[w])
	} else {
		kernel.BlockMulAdd(y, m.Kern, x, rows, yp, cols, v, ws.scratch[w])
	}
	ctr[ctrOtfNS] += nowNS() - t
}

// pairTask is the nearfield of one leaf pair (i, j), i <= j: block (i, j)
// into leaf i's outputs and, for i < j, block (j, i) into leaf j's. For a
// symmetric kernel both orientations share the one stored block (i, j), so
// nearTwin visits it once for both outputs (a symmetric kernel never binds
// the transpose roles). Everything else (the diagonal block, unsymmetric
// kernels) applies each orientation with near.
func (ws *Workspace) pairTask(w, i, j int) {
	if i != j && !ws.m.near.directed {
		ws.nearTwin(w, i, j)
		return
	}
	ws.near(w, i, j)
	if i != j {
		ws.near(w, j, i)
	}
}

// near adds one directed nearfield block into leaf i's outputs:
// Y_i += K(X_i, X_j) B_j, or its transpose-product form.
func (ws *Workspace) near(w, i, j int) {
	a, b, trans := ws.key(ws.m.near, i, j)
	ws.block(w, true, ws.outRows(i), a, b, trans, ws.inRows(j))
}

// nearTwin applies the off-diagonal pair (i < j) of a symmetric kernel in
// one visit of block (i, j): Y_i += B_{i,j} B_j and Y_j += B_{i,j}ᵀ B_i,
// through mat.MulVecAddTwin per column for a stored block and
// kernel.BlockMulAddTwin
// otherwise — each bitwise-identical to the two directed blocks it
// replaces. It counts a hit or miss per directed block, as near does.
func (ws *Workspace) nearTwin(w, i, j int) {
	m := ws.m
	ctr := ws.ctr[w*ctrStride : (w+1)*ctrStride]
	yi, yj := ws.outRows(i), ws.outRows(j)
	bi, bj := ws.inRows(i), ws.inRows(j)
	if blk := m.near.Get(i, j); blk != nil {
		ctr[ctrHit] += 2
		for t := range yi.Rows {
			mat.MulVecAddTwin(yi.Row(t), yj.Row(t), blk, bj.Row(t), bi.Row(t))
		}
		return
	}
	ctr[ctrMiss] += 2
	t := nowNS()
	kernel.BlockMulAddTwin(yi, yj, m.Kern, m.Tree.Points, m.leafRange(i), m.Tree.Points, m.leafRange(j), bj, bi, ws.scratch[w])
	ctr[ctrOtfNS] += nowNS() - t
}

// zero clears a panel's data in place.
func zero(s []float64) {
	for i := range s {
		s[i] = 0
	}
}
