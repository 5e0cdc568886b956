package core

import (
	"fmt"

	"h2ds/internal/kernel"
	"h2ds/internal/mat"
	"h2ds/internal/par"
)

// Workspace holds every buffer a matvec needs, so repeated products — the
// iterative-solve workload the paper motivates the normal mode with (§VI-B)
// — touch the allocator only on the first call. It carves per-node q/g
// segments out of two flat slabs via prefix sums over the node ranks
// (contiguous by construction, one cache-friendly block per level), keeps
// the two N-length permutation buffers, and owns the per-worker scratch
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
// count; one worker drains the same graph serially. Per-call parameters
// (the apply variant, the vectors, the q/g roles, the coupling mask) travel
// through workspace fields and the drain loop is bound once at
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

	// Permutation buffers (length N).
	bp, yp []float64

	// Prefix sums over the row-side and column-side ranks, indexed by node
	// id; node i's segment is slab[off[i]:off[i+1]]. For shared bases the
	// two offset tables are the same slice; the slabs are always distinct
	// because q and g live simultaneously.
	rowOff, colOff   []int
	rowSlab, colSlab []float64

	// Per-worker tile buffers (grown on demand when the configured worker
	// count rises). The fused on-the-fly kernels use them as one-row panels
	// in the batch sweeps and the vector pair twins, and for gathered
	// coordinate panels.
	scratch []*mat.Dense

	// ctr holds per-worker instrumentation, padded to ctrStride int64s per
	// worker to keep workers off each other's cache lines (layout below).
	// Flushed into the matrix's atomics once per apply.
	ctr []int64

	// ---- per-call state read by the task kernels ----
	kind       applyKind
	curB, curY []float64 // permuted input/output vectors
	q, g       []float64 // slab aliases for the call's q/g roles
	qOff, gOff []int     // matching offset tables

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

	// ---- batch (multi-RHS) state ----
	k                  int // current batch width
	bpB, ypB           *mat.Dense
	rowSlabB, colSlabB []float64
	qB, gB             []*mat.Dense   // per-node headers re-pointed into the slabs
	views              [][4]mat.Dense // per-worker leaf-range view headers (outRows, inRows)
}

// applyKind selects the apply variant whose per-node kernels a drain runs.
type applyKind uint8

const (
	applyVec   applyKind = iota // y = Â b
	applyTrans                  // y = Âᵀ b
	applyBatch                  // Y = Â B, one column per right-hand side
)

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

// stageKernels[kind][stage] is the per-node kernel of one apply variant's
// sweep stage: kernel(ws, worker, node id). Method expressions, so selecting
// a variant per task is a table lookup, not a closure.
var stageKernels = [...][nStages]func(ws *Workspace, w, id int){
	applyVec:   {(*Workspace).upNode, (*Workspace).coupNode, (*Workspace).downNode, (*Workspace).leafNode},
	applyTrans: {(*Workspace).upNodeT, (*Workspace).coupNodeT, (*Workspace).downNodeT, (*Workspace).leafNodeT},
	applyBatch: {(*Workspace).upNodeB, (*Workspace).coupNodeB, (*Workspace).downNodeB, (*Workspace).leafNodeB},
}

// nearKernels[kind] is one apply variant's directed nearfield kernel:
// kernel(ws, worker, i, j) adds block (i, j)'s contribution into leaf i's
// output rows.
var nearKernels = [...]func(ws *Workspace, w, i, j int){
	applyVec:   (*Workspace).nearVec,
	applyTrans: (*Workspace).nearT,
	applyBatch: (*Workspace).nearB,
}

// nearTwins[kind] is one apply variant's symmetric pair kernel:
// kernel(ws, worker, i, j) adds block (i, j) into leaf i's outputs and its
// transpose into leaf j's. The transpose sweep has none: only unsymmetric
// kernels run it (Matrix.vecKind).
var nearTwins = [...]func(ws *Workspace, w, i, j int){
	applyVec:   (*Workspace).nearTwin,
	applyBatch: (*Workspace).nearTwinB,
}

// NewWorkspace allocates a workspace sized for m's tree and ranks. Reuse it
// across products from a single goroutine; for ad-hoc calls prefer ApplyTo,
// which pools workspaces internally.
func (m *Matrix) NewWorkspace() *Workspace {
	nNodes := len(m.Tree.Nodes)
	ws := &Workspace{m: m}
	ws.bp = make([]float64, m.N)
	ws.yp = make([]float64, m.N)
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
	ws.rowSlab = make([]float64, ws.rowOff[nNodes])
	ws.colSlab = make([]float64, ws.colOff[nNodes])
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
// adapts to the worker count: the pool is (re)created when it was closed or
// when the resolved count moved (e.g. under a GOMAXPROCS change).
func (ws *Workspace) check(m *Matrix, workers int) {
	if ws.m != m {
		panic("core: workspace used with a different Matrix than it was created for")
	}
	ws.workers = workers
	if ws.pool == nil || ws.pool.Workers() != workers {
		if ws.pool != nil {
			ws.pool.Close()
		}
		ws.pool = par.NewPool(workers)
	}
	ws.growScratch(workers)
}

// bind prepares ws for one apply of the given kind on m: check, then the
// q/g role assignment — q carries the upward (input-side) coefficients and g
// the coupling results, so the transpose swaps the row and column slabs.
// The batch variant addresses its own per-node panels and ignores the roles.
func (ws *Workspace) bind(m *Matrix, kind applyKind) {
	ws.check(m, par.Resolve(m.Cfg.Workers))
	ws.kind = kind
	if kind == applyTrans {
		ws.q, ws.qOff = ws.rowSlab, ws.rowOff
		ws.g, ws.gOff = ws.colSlab, ws.colOff
	} else {
		ws.q, ws.qOff = ws.colSlab, ws.colOff
		ws.g, ws.gOff = ws.rowSlab, ws.rowOff
	}
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

// BatchWidth returns the multi-RHS width the batch buffers are currently
// shaped for: the k of the most recent ApplyBatchToWith call, or 0 before
// the first one. Serving layers read it to report the effective coalescing
// width a reused workspace is operating at.
func (ws *Workspace) BatchWidth() int { return ws.k }

// Bytes returns the deterministic payload size of the vector-path buffers
// (permute buffers plus both rank slabs). Scratch tiles are accounted
// separately (MemoryStats.ScratchPerWorker); batch slabs grow with the
// batch width and are excluded.
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

// workspaceBytes is the deterministic size of one vector-path workspace,
// computed from the representation shape without allocating one.
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
// workspace's permutation buffers).
func (m *Matrix) ApplyToWith(ws *Workspace, y, b []float64) {
	if len(y) != m.N || len(b) != m.N {
		panic(fmt.Sprintf("core: apply length mismatch y=%d b=%d n=%d", len(y), len(b), m.N))
	}
	m.Tree.PermuteVec(ws.bp, b)
	m.applyPermutedWith(ws, ws.yp, ws.bp, applyVec)
	m.Tree.UnpermuteVec(y, ws.yp)
}

// ApplyTransposeToWith computes y = Âᵀ b into y using the caller-owned
// workspace. y and b must both have length N; they may alias.
func (m *Matrix) ApplyTransposeToWith(ws *Workspace, y, b []float64) {
	if len(y) != m.N || len(b) != m.N {
		panic(fmt.Sprintf("core: applyTranspose length mismatch y=%d b=%d n=%d", len(y), len(b), m.N))
	}
	m.Tree.PermuteVec(ws.bp, b)
	m.applyPermutedWith(ws, ws.yp, ws.bp, m.vecKind(true))
	m.Tree.UnpermuteVec(y, ws.yp)
}

// applyPermutedWith runs the five sweeps of Algorithm 2 on permuted vectors
// with all state drawn from ws: the plain product for applyVec, and for
// applyTrans the transpose, whose upward sweep goes through U/R, couplings
// apply B_{j,i}ᵀ, and downward/leaf sweeps go through V/W. yp and bp must
// not alias (stage 5 reads bp's nearfield neighbours while writing yp).
func (m *Matrix) applyPermutedWith(ws *Workspace, yp, bp []float64, kind applyKind) {
	ws.bind(m, kind)
	ws.curB, ws.curY = bp, yp
	ws.runScheduled()
}

// seg returns node id's segment of the given slab.
func seg(slab []float64, off []int, id int) []float64 { return slab[off[id]:off[id+1]] }

// zero clears a segment in place.
func zero(s []float64) {
	for i := range s {
		s[i] = 0
	}
}

// upNode is stage 1+2 for Apply: leaves project their input slice through
// the column basis; internal nodes combine children through the stacked
// column transfer blocks.
func (ws *Workspace) upNode(_, id int) {
	m := ws.m
	nd := &m.Tree.Nodes[id]
	qi := seg(ws.q, ws.qOff, id)
	zero(qi)
	if len(qi) == 0 {
		return
	}
	if nd.IsLeaf {
		mat.MulTVecAdd(qi, m.colBasis(id), ws.curB[nd.Start:nd.End])
		return
	}
	off := 0
	for _, c := range nd.Children {
		rc := m.colRank(c)
		if rc > 0 {
			mat.MulTVecAddRange(qi, m.colTrans(id), off, off+rc, seg(ws.q, ws.qOff, c))
		}
		off += rc
	}
}

// coupNode is stage 3 for Apply: g_i = Σ_{j ∈ IL(i)} B_{i,j} q_j, each block
// in its stored orientation (vecBlock).
func (ws *Workspace) coupNode(w, id int) {
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
		a, b, trans := m.coup.key(id, j)
		ws.vecBlock(w, false, gi, a, b, trans, seg(ws.q, ws.qOff, j))
	}
}

// vecBlock adds one coupling (near false) or nearfield block, applied
// forward or transposed, into y: y += B_{a,b} v, or y += B_{a,b}ᵀ v with
// trans. (a, b) is the block's stored key, so every block is summed in one
// orientation in every memory mode: a stored payload is multiplied in place
// (MulVecAdd / MulTVecAdd), and an unstored one is evaluated by the fused
// kernel of the same product (BlockVecAdd / BlockTVecAdd), which is
// bitwise-identical to it.
func (ws *Workspace) vecBlock(w int, near bool, y []float64, a, b int, trans bool, v []float64) {
	m := ws.m
	ctr := ws.ctr[w*ctrStride : (w+1)*ctrStride]
	if blk := m.store(near).Get(a, b); blk != nil {
		ctr[ctrHit]++
		if trans {
			mat.MulTVecAdd(y, blk, v)
		} else {
			mat.MulVecAdd(y, blk, v)
		}
		return
	}
	ctr[ctrMiss]++
	t := nowNS()
	x, rows, yp, cols := m.blockPoints(near, a, b)
	if trans {
		kernel.BlockTVecAdd(y, m.Kern, x, rows, yp, cols, v, ws.scratch[w])
	} else {
		kernel.BlockVecAdd(y, m.Kern, x, rows, yp, cols, v, ws.scratch[w])
	}
	ctr[ctrOtfNS] += nowNS() - t
}

// batchBlock is vecBlock for a block of right-hand sides: Y += B_{a,b} V, or
// Y += B_{a,b}ᵀ V with trans (MulAddTo / MulTAddTo, fused BlockMulAdd /
// BlockTMulAdd).
func (ws *Workspace) batchBlock(w int, near bool, y *mat.Dense, a, b int, trans bool, v *mat.Dense) {
	m := ws.m
	ctr := ws.ctr[w*ctrStride : (w+1)*ctrStride]
	if blk := m.store(near).Get(a, b); blk != nil {
		ctr[ctrHit]++
		if trans {
			mat.MulTAddTo(y, blk, v)
		} else {
			mat.MulAddTo(y, blk, v)
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

// downNode is stage 4 for Apply: g_c += R_c g_i, parents writing only their
// own children's segments.
func (ws *Workspace) downNode(_, id int) {
	m := ws.m
	nd := &m.Tree.Nodes[id]
	if nd.IsLeaf || m.ranks[id] == 0 {
		return
	}
	gi := seg(ws.g, ws.gOff, id)
	off := 0
	for _, c := range nd.Children {
		rc := m.ranks[c]
		if rc > 0 {
			mat.MulVecAddRange(seg(ws.g, ws.gOff, c), m.trans[id], off, off+rc, gi)
		}
		off += rc
	}
}

// leafNode is stage 5 for Apply, farfield half: y_i = U_i g_i. The
// nearfield half runs as pair tasks (pairTask) chained behind it.
func (ws *Workspace) leafNode(_, id int) {
	m := ws.m
	yi := ws.leafY(id)
	zero(yi)
	if m.ranks[id] > 0 {
		mat.MulVecAdd(yi, m.u[id], seg(ws.g, ws.gOff, id))
	}
}

// leafY and leafB return leaf id's range of the call's output and input
// vectors.
func (ws *Workspace) leafY(id int) []float64 {
	nd := &ws.m.Tree.Nodes[id]
	return ws.curY[nd.Start:nd.End]
}

func (ws *Workspace) leafB(id int) []float64 {
	nd := &ws.m.Tree.Nodes[id]
	return ws.curB[nd.Start:nd.End]
}

// pairTask is the nearfield of one leaf pair (i, j), i <= j: block (i, j)
// into leaf i's outputs and, for i < j, block (j, i) into leaf j's. For a
// symmetric kernel both orientations share the one stored block (i, j), so
// a twin visits it once for both outputs (nearTwins; a symmetric kernel
// never runs the transpose sweep). Everything else (the diagonal block,
// unsymmetric kernels) applies each orientation with the variant's near
// kernel.
func (ws *Workspace) pairTask(w, i, j int) {
	if i != j && !ws.m.near.directed {
		nearTwins[ws.kind](ws, w, i, j)
		return
	}
	near := nearKernels[ws.kind]
	near(ws, w, i, j)
	if i != j {
		near(ws, w, j, i)
	}
}

// nearTwin applies the off-diagonal pair (i < j) of a symmetric vector
// apply in one visit of block (i, j): y_i += B_{i,j} b_j and
// y_j += B_{i,j}ᵀ b_i, through mat.MulVecAddTwin for a stored block and
// kernel.BlockVecAddTwin otherwise — each bitwise-identical to the two
// directed blocks it replaces. It counts a hit or miss per directed block,
// as nearVec does.
func (ws *Workspace) nearTwin(w, i, j int) {
	m := ws.m
	ctr := ws.ctr[w*ctrStride : (w+1)*ctrStride]
	yi, yj := ws.leafY(i), ws.leafY(j)
	bi, bj := ws.leafB(i), ws.leafB(j)
	if blk := m.near.Get(i, j); blk != nil {
		ctr[ctrHit] += 2
		mat.MulVecAddTwin(yi, yj, blk, bj, bi)
		return
	}
	ctr[ctrMiss] += 2
	t := nowNS()
	kernel.BlockVecAddTwin(yi, yj, m.Kern, m.Tree.Points, m.leafRange(i), m.Tree.Points, m.leafRange(j), bj, bi, ws.scratch[w])
	ctr[ctrOtfNS] += nowNS() - t
}

// nearVec adds one directed nearfield block: y_i += K(X_i, X_j) b_j.
func (ws *Workspace) nearVec(w, i, j int) {
	a, b, trans := ws.m.near.key(i, j)
	ws.vecBlock(w, true, ws.leafY(i), a, b, trans, ws.leafB(j))
}

// upNodeT is the transpose upward sweep through the ROW generators (U, R).
func (ws *Workspace) upNodeT(_, id int) {
	m := ws.m
	nd := &m.Tree.Nodes[id]
	qi := seg(ws.q, ws.qOff, id)
	zero(qi)
	if len(qi) == 0 {
		return
	}
	if nd.IsLeaf {
		mat.MulTVecAdd(qi, m.u[id], ws.curB[nd.Start:nd.End])
		return
	}
	off := 0
	for _, c := range nd.Children {
		rc := m.ranks[c]
		if rc > 0 {
			mat.MulTVecAddRange(qi, m.trans[id], off, off+rc, seg(ws.q, ws.qOff, c))
		}
		off += rc
	}
}

// coupNodeT is the transpose coupling sweep: g_i = Σ_j B_{j,i}ᵀ q_j. The
// interaction lists are symmetric as sets, so iterating i's own list covers
// exactly the blocks whose transpose writes into i. Only unsymmetric kernels
// run the transpose sweeps (see vecKind), so the stored key of B_{j,i} is
// (j, i) itself.
func (ws *Workspace) coupNodeT(w, id int) {
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
		ws.vecBlock(w, false, gi, j, id, true, seg(ws.q, ws.qOff, j))
	}
}

// downNodeT is the transpose downward sweep through the COLUMN generators.
func (ws *Workspace) downNodeT(_, id int) {
	m := ws.m
	nd := &m.Tree.Nodes[id]
	if nd.IsLeaf || m.colRank(id) == 0 {
		return
	}
	gi := seg(ws.g, ws.gOff, id)
	off := 0
	for _, c := range nd.Children {
		rc := m.colRank(c)
		if rc > 0 {
			mat.MulVecAddRange(seg(ws.g, ws.gOff, c), m.colTrans(id), off, off+rc, gi)
		}
		off += rc
	}
}

// leafNodeT is the transpose leaf sweep, farfield half: y_i = V_i g_i.
func (ws *Workspace) leafNodeT(_, id int) {
	m := ws.m
	yi := ws.leafY(id)
	zero(yi)
	if m.colRank(id) > 0 {
		mat.MulVecAdd(yi, m.colBasis(id), seg(ws.g, ws.gOff, id))
	}
}

// nearT adds one directed transpose nearfield block: y_i += K(X_j, X_i)ᵀ b_j.
func (ws *Workspace) nearT(w, i, j int) {
	ws.vecBlock(w, true, ws.leafY(i), j, i, true, ws.leafB(j))
}

// ---- batched multi-RHS path ----

// ensureBatch sizes the batch buffers for width k: the N-by-k permutation
// buffers, one slab per rank side, and per-node matrix headers re-pointed
// into the slabs. Everything is reused across calls; buffers only grow.
func (ws *Workspace) ensureBatch(k int) {
	m := ws.m
	nNodes := len(m.Tree.Nodes)
	if ws.bpB == nil {
		ws.bpB = mat.NewDense(0, 0)
		ws.ypB = mat.NewDense(0, 0)
		ws.qB = make([]*mat.Dense, nNodes)
		ws.gB = make([]*mat.Dense, nNodes)
		for i := 0; i < nNodes; i++ {
			ws.qB[i] = &mat.Dense{}
			ws.gB[i] = &mat.Dense{}
		}
	}
	for len(ws.views) < len(ws.scratch) {
		ws.views = append(ws.views, [4]mat.Dense{})
	}
	ws.bpB.Reshape(m.N, k)
	ws.ypB.Reshape(m.N, k)
	if need := ws.rowOff[nNodes] * k; cap(ws.rowSlabB) < need {
		ws.rowSlabB = make([]float64, need)
	}
	if need := ws.colOff[nNodes] * k; cap(ws.colSlabB) < need {
		ws.colSlabB = make([]float64, need)
	}
	for id := 0; id < nNodes; id++ {
		g := ws.gB[id]
		g.Rows, g.Cols = ws.rowOff[id+1]-ws.rowOff[id], k
		g.Data = ws.rowSlabB[ws.rowOff[id]*k : ws.rowOff[id+1]*k]
		q := ws.qB[id]
		q.Rows, q.Cols = ws.colOff[id+1]-ws.colOff[id], k
		q.Data = ws.colSlabB[ws.colOff[id]*k : ws.colOff[id+1]*k]
	}
	ws.k = k
}

// rowsView points header v at rows [r0, r1) of the row-major matrix a
// (shared backing, no copy).
func rowsView(v, a *mat.Dense, r0, r1 int) *mat.Dense {
	v.Rows, v.Cols = r1-r0, a.Cols
	v.Data = a.Data[r0*a.Cols : r1*a.Cols]
	return v
}

// outRows and inRows view leaf id's rows of the batch output and input
// panels through worker w's header slot s (0 or 1, so a pair task can hold
// two leaves' views at once) — the batch forms of leafY and leafB.
func (ws *Workspace) outRows(w, s, id int) *mat.Dense {
	nd := &ws.m.Tree.Nodes[id]
	return rowsView(&ws.views[w][s], ws.ypB, nd.Start, nd.End)
}

func (ws *Workspace) inRows(w, s, id int) *mat.Dense {
	nd := &ws.m.Tree.Nodes[id]
	return rowsView(&ws.views[w][2+s], ws.bpB, nd.Start, nd.End)
}

// ApplyBatchToWith computes Y = Â B for k right-hand sides stored as the
// columns of the N-by-k matrix B, using the caller-owned workspace. Y is
// reshaped to N-by-k; Y and B may alias. The five sweeps run once with
// matrix-valued node states, so every coupling and nearfield block — in
// on-the-fly mode, every tile assembly — is visited once for the whole
// batch instead of once per column, and each stage is a small blocked GEMM.
func (m *Matrix) ApplyBatchToWith(ws *Workspace, Y, B *mat.Dense) {
	if B.Rows != m.N {
		panic(fmt.Sprintf("core: applyBatch rows %d want %d", B.Rows, m.N))
	}
	ws.bindBatch(m, B)
	ws.runScheduled()
	ws.unpermuteBatch(Y)
}

// bindBatch prepares ws for a batch apply of B's columns: bind, size the
// batch buffers for B's width, and permute B's rows into the input panel.
func (ws *Workspace) bindBatch(m *Matrix, B *mat.Dense) {
	ws.bind(m, applyBatch)
	ws.ensureBatch(B.Cols)
	for row, orig := range m.Tree.Perm {
		copy(ws.bpB.Row(row), B.Row(orig))
	}
}

// unpermuteBatch reshapes Y to N-by-k and un-permutes the batch output rows
// into it.
func (ws *Workspace) unpermuteBatch(Y *mat.Dense) {
	m := ws.m
	Y.Reshape(m.N, ws.k)
	for row, orig := range m.Tree.Perm {
		copy(Y.Row(orig), ws.ypB.Row(row))
	}
}

// upNodeB is the batched upward sweep: q_i = V_iᵀ B_i for leaves,
// q_i = Σ_c W_cᵀ q_c above.
func (ws *Workspace) upNodeB(w, id int) {
	m := ws.m
	nd := &m.Tree.Nodes[id]
	qi := ws.qB[id]
	zero(qi.Data)
	if qi.Rows == 0 {
		return
	}
	if nd.IsLeaf {
		mat.MulTAddTo(qi, m.colBasis(id), ws.inRows(w, 0, id))
		return
	}
	off := 0
	for _, c := range nd.Children {
		rc := m.colRank(c)
		if rc > 0 {
			mat.MulTRangeAddTo(qi, m.colTrans(id), off, off+rc, ws.qB[c])
		}
		off += rc
	}
}

// coupNodeB is the batched coupling sweep: one stored-block application or
// fused evaluation per block for all k columns, in the block's stored
// orientation (batchBlock).
func (ws *Workspace) coupNodeB(w, id int) {
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
		a, b, trans := m.coup.key(id, j)
		ws.batchBlock(w, false, gi, a, b, trans, ws.qB[j])
	}
}

// downNodeB is the batched downward sweep: g_c += R_c g_i.
func (ws *Workspace) downNodeB(_, id int) {
	m := ws.m
	nd := &m.Tree.Nodes[id]
	if nd.IsLeaf || m.ranks[id] == 0 {
		return
	}
	gi := ws.gB[id]
	off := 0
	for _, c := range nd.Children {
		rc := m.ranks[c]
		if rc > 0 {
			mat.MulRangeAddTo(ws.gB[c], m.trans[id], off, off+rc, gi)
		}
		off += rc
	}
}

// leafNodeB is the batched leaf sweep, farfield half: Y_i = U_i G_i.
func (ws *Workspace) leafNodeB(w, id int) {
	m := ws.m
	yi := ws.outRows(w, 0, id)
	zero(yi.Data)
	if m.ranks[id] > 0 {
		mat.MulAddTo(yi, m.u[id], ws.gB[id])
	}
}

// nearB adds one directed batched nearfield block: Y_i += K(X_i, X_j) B_j.
func (ws *Workspace) nearB(w, i, j int) {
	a, b, trans := ws.m.near.key(i, j)
	ws.batchBlock(w, true, ws.outRows(w, 0, i), a, b, trans, ws.inRows(w, 0, j))
}

// nearTwinB is nearTwin for a block of right-hand sides: Y_i += B_{i,j} B_j
// and Y_j += B_{i,j}ᵀ B_i in one visit of block (i, j) — the stored block
// through MulAddTo and MulTAddTo, an unstored one through
// kernel.BlockMulAddTwin, which evaluates each entry once.
func (ws *Workspace) nearTwinB(w, i, j int) {
	m := ws.m
	ctr := ws.ctr[w*ctrStride : (w+1)*ctrStride]
	yi, yj := ws.outRows(w, 0, i), ws.outRows(w, 1, j)
	bi, bj := ws.inRows(w, 0, i), ws.inRows(w, 1, j)
	if blk := m.near.Get(i, j); blk != nil {
		ctr[ctrHit] += 2
		mat.MulAddTo(yi, blk, bj)
		mat.MulTAddTo(yj, blk, bi)
		return
	}
	ctr[ctrMiss] += 2
	t := nowNS()
	kernel.BlockMulAddTwin(yi, yj, m.Kern, m.Tree.Points, m.leafRange(i), m.Tree.Points, m.leafRange(j), bj, bi, ws.scratch[w])
	ctr[ctrOtfNS] += nowNS() - t
}
