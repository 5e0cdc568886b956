package core

import (
	"runtime"
	"sync/atomic"

	"h2ds/internal/tree"
)

// Barrier-free sweep scheduling: the one sweep engine every apply runs on.
//
// Run as five level-synchronous sweeps, Algorithm 2 puts a fork/barrier on
// every tree level, so workers idle at each barrier and starve near the root
// where levels hold fewer nodes than workers. The scheduler here replaces the
// barriers with a dependency-driven task graph: one task per (node, stage),
// released the moment its inputs are final. Upward tasks release their parent as soon as the last child lands,
// coupling tasks fire as soon as their interaction partners' upward partials
// exist (long before the full upward sweep finishes), and leaf tasks — which
// carry the nearfield block rows — interleave with everything else, filling
// the idle time the barriers used to burn.
//
// Bitwise contract: every output slot (a node's q segment, g segment, or a
// leaf's y range) has its writers on one chain of graph edges, and each
// task's internal arithmetic is the per-node kernel a level-synchronous
// sweep would run. For q and g segments the chain is a single task, or the
// coupling zero+accumulate before the parent's downward add; the downward
// add precedes the leaf expansion that reads it. A leaf's y range is
// written by its leaf task (y_i = U_i g_i) and then by one nearfield pair
// task per entry of its Near list, chained in list order. Each task adds
// into y_i exactly what the level-synchronous leaf kernel added for that
// partner, in the same order, so the result is bitwise-identical to the
// level-synchronous reference (kept as a test oracle) at every worker
// count, one included — there is no merge step to make deterministic
// because no slot ever has two unordered writers.
//
// Task id layout for a tree with nNodes nodes and nPairs nearfield pairs
// (total = 3*nNodes + nPairs tasks):
//
//	[0, nNodes)            up(id)    upward sweep, one per node
//	[nNodes, 2*nNodes)     coup(id)  coupling sweep, one per node
//	[2*nNodes, 3*nNodes)   down(id)  downward sweep for internal nodes;
//	                                 leaf nodes have no downward task, so
//	                                 their slot holds the leaf task
//	[3*nNodes, +nPairs)    pair(p)   nearfield of leaf pair p = (i, j),
//	                                 i <= j, j ∈ Near(i), in lexicographic
//	                                 (i, j) order; writes y_i and y_j
//
// Edges (dependency -> dependent):
//
//	up(c)    -> up(parent(c))        children before the stacked transfer
//	up(j)    -> coup(i)  ∀ j∈IL(i)   partials before the coupling reads them
//	coup(i)  -> down(i)              down reads g_i after coupling filled it
//	coup(c)  -> down(parent(c))      down adds into g_c after coup zeroed it
//	down(p)  -> down(i)              g_i is final only after p's contribution
//	coup(l)  -> leaf(l)              leaf reads g_l after coupling
//	down(p)  -> leaf(l)              ... and after the parent's add
//	leaf(l)  -> first pair on l      the y_l chain: leaf task, then the
//	pair     -> next pair on l       pairs containing l in Near(l) order
//
// Chains are threaded through the pairs in task-id order, so every pair
// edge points to a higher task id and the graph stays acyclic whatever the
// lists hold. The chain of leaf l visits its pairs in lexicographic order,
// which is Near(l) order because Near lists are ascending (tree.New sorts
// them and Read rejects streams whose lists are not) — the order the
// level-synchronous leaf kernel adds them in. A pair has in-degree 2 (one
// chain per endpoint), a diagonal pair (l, l) in-degree 1.
//
// The same graph serves the forward, transpose, and batched applies and both
// halves of the sharded apply: the stages swap which generator they read
// (U/R vs V/W) but touch the same slots in the same node topology, and the
// sharded halves mask tasks out without removing their edges.
type taskGraph struct {
	nNodes  int
	total   int32
	initCnt []int32    // initial dependency count per task id
	depOff  []int32    // CSR offsets into depList per task id
	depList []int32    // dependent task ids
	ready0  []int32    // zero-dependency tasks in deterministic order
	pairs   [][2]int32 // leaf pair (i, j) of pair task 3*nNodes+p
}

// schedGraph lazily builds the matrix's task graph (the tree is immutable
// after construction, so one graph serves every workspace and apply kind).
func (m *Matrix) schedGraph() *taskGraph {
	m.schedOnce.Do(func() { m.sched = buildTaskGraph(m.Tree) })
	return m.sched
}

func buildTaskGraph(t *tree.Tree) *taskGraph {
	nN := len(t.Nodes)
	g := &taskGraph{nNodes: nN}
	for i := range t.Nodes {
		for _, j := range t.Nodes[i].Near {
			if j >= i {
				g.pairs = append(g.pairs, [2]int32{int32(i), int32(j)})
			}
		}
	}
	nT := 3*nN + len(g.pairs)
	g.total = int32(nT)
	up := func(id int) int32 { return int32(id) }
	coup := func(id int) int32 { return int32(nN + id) }
	down := func(id int) int32 { return int32(2*nN + id) }

	// Two passes over the same edge enumeration: count out-degrees, then fill.
	deg := make([]int32, nT)
	g.initCnt = make([]int32, nT)
	last := make([]int32, nN) // tail of each leaf's y chain
	edges := func(emit func(from, to int32)) {
		for id := range t.Nodes {
			nd := &t.Nodes[id]
			if nd.Parent >= 0 {
				emit(up(id), up(nd.Parent))
				emit(coup(id), down(nd.Parent))
			}
			for _, j := range nd.Interaction {
				emit(up(j), coup(id))
			}
			// down(id) doubles as the leaf task when id is a leaf; the
			// dependencies are the same shape either way.
			emit(coup(id), down(id))
			if nd.Parent >= 0 {
				emit(down(nd.Parent), down(id))
			}
			last[id] = down(id)
		}
		for p, pr := range g.pairs {
			task := int32(3*nN + p)
			i, j := pr[0], pr[1]
			emit(last[i], task)
			last[i] = task
			if j != i {
				emit(last[j], task)
				last[j] = task
			}
		}
	}
	edges(func(from, to int32) { deg[from]++; g.initCnt[to]++ })
	g.depOff = make([]int32, nT+1)
	for i := 0; i < nT; i++ {
		g.depOff[i+1] = g.depOff[i] + deg[i]
	}
	g.depList = make([]int32, g.depOff[nT])
	fill := make([]int32, nT)
	edges(func(from, to int32) {
		g.depList[g.depOff[from]+fill[from]] = to
		fill[from]++
	})

	// Initial frontier, deepest level first: leaf up tasks feed the longest
	// dependency chains, so they go ahead of the isolated zero-interaction
	// coupling tasks.
	for l := len(t.Levels) - 1; l >= 0; l-- {
		for _, id := range t.Levels[l] {
			if t.Nodes[id].IsLeaf {
				g.ready0 = append(g.ready0, up(id))
			}
		}
	}
	for id := range t.Nodes {
		if len(t.Nodes[id].Interaction) == 0 {
			g.ready0 = append(g.ready0, coup(id))
		}
	}
	return g
}

// scheduler is the per-workspace runtime state of one scheduled apply: a
// resettable dependency-count array and a bounded MPMC ready ring. Slots are
// claimed in push order via two atomic cursors; a claimed-but-unfilled slot
// is guaranteed to fill because every task is pushed exactly once (the graph
// is a DAG covering all tasks), so claimants spin-yield instead of parking.
type scheduler struct {
	g     *taskGraph
	cnt   []int32
	queue []int32 // task id + 1; 0 = not yet pushed
	_     [40]byte
	head  atomic.Int64 // next slot to claim
	_     [56]byte
	tail  atomic.Int64 // next slot to fill
	_     [56]byte
}

// reset prepares the scheduler for one apply and seeds the initial frontier.
func (s *scheduler) reset(g *taskGraph) {
	s.g = g
	n := len(g.initCnt)
	if cap(s.cnt) < n {
		s.cnt = make([]int32, n)
		s.queue = make([]int32, n)
	}
	s.cnt = s.cnt[:n]
	s.queue = s.queue[:n]
	copy(s.cnt, g.initCnt)
	for i := range s.queue {
		s.queue[i] = 0
	}
	s.head.Store(0)
	for i, t := range g.ready0 {
		s.queue[i] = t + 1
	}
	s.tail.Store(int64(len(g.ready0)))
}

// runSched is one worker slot's scheduling loop: claim the next ready task
// slot, execute its task, release dependents, repeat until every task is
// claimed. runScheduled hands it to par.Pool.ForWorker with one iteration
// per worker slot; the iteration index is the slot, distinct even when one
// goroutine claims two iterations, so it indexes the per-worker counter and
// scratch lines. The pool phase (and hence the apply) completes only when
// every loop returns, and a loop returns only after finishing the
// decrements of its last claimed task — so loop exit implies every task has
// fully executed. With one worker the single loop drains the whole graph.
func (ws *Workspace) runSched(_, slot int) {
	s := &ws.sched
	g := s.g
	total := int64(g.total)
	for {
		idx := s.head.Add(1) - 1
		if idx >= total {
			return
		}
		var task int32
		for {
			task = atomic.LoadInt32(&s.queue[idx])
			if task != 0 {
				break
			}
			runtime.Gosched()
		}
		task--
		ws.execTask(slot, task)
		for _, d := range g.depList[g.depOff[task]:g.depOff[task+1]] {
			if atomic.AddInt32(&s.cnt[d], -1) == 0 {
				tail := s.tail.Add(1) - 1
				atomic.StoreInt32(&s.queue[tail], d+1)
			}
		}
	}
}

// execTask runs one task's per-node kernel and charges its time to the
// worker's per-stage counter line. Tasks the sharded apply masks out do
// nothing; runSched still releases their dependents.
func (ws *Workspace) execTask(w int, t int32) {
	g := ws.sched.g
	nN := int32(g.nNodes)
	if p := t - 3*nN; p >= 0 {
		if ws.scatter {
			return
		}
		pr := g.pairs[p]
		t0 := nowNS()
		ws.pairTask(w, int(pr[0]), int(pr[1]))
		ws.ctr[w*ctrStride+ctrLeafNS] += nowNS() - t0
		return
	}
	stage, id := int(t/nN), int(t%nN)
	switch {
	case stage == stageDown && ws.m.Tree.Nodes[id].IsLeaf:
		stage = stageLeaf
	case stage == stageCoup && ws.coupMask != nil && !ws.coupMask[id]:
		return
	}
	if ws.scatter && stage >= stageDown {
		return
	}
	t0 := nowNS()
	ws.runStage(stage, w, id)
	ws.ctr[w*ctrStride+ctrUpNS+stage] += nowNS() - t0
}

// runScheduled executes one apply (all five sweeps, or the masked subset
// the sharded apply selects) as a single barrier-free pool phase, then
// flushes the counters and clears the per-call state. A scatter drain is a
// partial apply and does not count toward SweepStats.Applies.
func (ws *Workspace) runScheduled() {
	ws.sched.reset(ws.m.schedGraph())
	ws.pool.ForWorker(ws.workers, ws.drain)
	if !ws.scatter {
		ws.m.sweeps.applies.Add(1)
	}
	ws.flushCounters()
	ws.coupMask, ws.scatter = nil, false
}
