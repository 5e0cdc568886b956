package core

import (
	"fmt"
	"sort"

	"h2ds/internal/mat"
)

// ShardPlan partitions one operator's tree at a subtree cut so the five-sweep
// apply can run as a two-stage scatter/gather across nodes: each shard owns
// the subtrees under a contiguous slice of the cut and computes the coupling
// sweep for exactly those nodes; the coordinator owns every node above the
// cut and finishes the product. The plan is a pure function of the tree shape
// and the (nshards, cut level) parameters, so every participant derives an
// identical plan from its own replica of the matrix — the wire protocol only
// carries the two integers, never the node sets.
//
// Bitwise contract: every g_i is computed by exactly one party using the same
// per-node kernel and the same interaction-list order as the single-node
// sweep, and shard partials are merged by placement (copy), never by
// summation. Combined with the full upward sweep running identically on every
// party, the distributed result is bitwise-equal to the single-node apply.
type ShardPlan struct {
	// NShards is the effective shard count (clamped to the cut width).
	NShards int
	// CutLevel is the tree level of the cut.
	CutLevel int
	// Roots[s] lists shard s's cut nodes, ascending by point range.
	Roots [][]int
	// Nodes[s] lists every node in shard s's subtrees, ascending by id.
	Nodes [][]int
	// Coord lists the coordinator-owned nodes (strict ancestors of the
	// cut), ascending by id.
	Coord []int
}

// AutoCutLevel picks the shallowest level whose subtree cut is wide enough to
// give every shard at least one root, capped at the deepest level.
func (m *Matrix) AutoCutLevel(nshards int) int {
	depth := m.Tree.Depth()
	for l := 1; l < depth; l++ {
		if len(m.Tree.Cut(l)) >= nshards {
			return l
		}
	}
	if depth > 1 {
		return depth - 1
	}
	return 0
}

// PlanShards derives the shard plan for nshards shards cutting the tree at
// cutLevel (<= 0 selects AutoCutLevel). The cut nodes, ordered by point
// range, are grouped into contiguous point-balanced slices; a cut narrower
// than nshards clamps the shard count rather than failing, so the effective
// partition is always total. The same (nshards, cutLevel) pair yields the
// same plan on every replica of the same build.
func (m *Matrix) PlanShards(nshards, cutLevel int) (*ShardPlan, error) {
	if nshards < 1 {
		return nil, fmt.Errorf("core: PlanShards nshards %d < 1", nshards)
	}
	if cutLevel <= 0 {
		cutLevel = m.AutoCutLevel(nshards)
	}
	if cutLevel < 0 || cutLevel >= m.Tree.Depth() {
		return nil, fmt.Errorf("core: PlanShards cut level %d outside tree depth %d", cutLevel, m.Tree.Depth())
	}
	cut := m.Tree.Cut(cutLevel)
	if len(cut) == 0 {
		return nil, fmt.Errorf("core: empty subtree cut at level %d", cutLevel)
	}
	if nshards > len(cut) {
		nshards = len(cut)
	}
	p := &ShardPlan{NShards: nshards, CutLevel: cutLevel}

	// Greedy contiguous grouping balanced by owned point count: each shard
	// takes cut nodes until it reaches the ceiling share of the remaining
	// points, always leaving one node for every shard still to come.
	remainingPts := m.N
	idx := 0
	for s := 0; s < nshards; s++ {
		target := (remainingPts + nshards - s - 1) / (nshards - s)
		maxTake := len(cut) - idx - (nshards - 1 - s)
		var grp []int
		pts := 0
		for idx < len(cut) && len(grp) < maxTake && (len(grp) == 0 || pts < target) {
			grp = append(grp, cut[idx])
			pts += m.Tree.Nodes[cut[idx]].Size()
			idx++
		}
		remainingPts -= pts
		p.Roots = append(p.Roots, grp)
		var nodes []int
		for _, root := range grp {
			nodes = append(nodes, m.Tree.Subtree(root)...)
		}
		// Subtrees of distinct cut nodes are disjoint; the sort fixes the
		// interleaving across subtrees into the ascending-id packing order.
		sort.Ints(nodes)
		p.Nodes = append(p.Nodes, nodes)
	}

	sharded := make([]bool, len(m.Tree.Nodes))
	for _, nodes := range p.Nodes {
		for _, id := range nodes {
			sharded[id] = true
		}
	}
	for id := range m.Tree.Nodes {
		if !sharded[id] {
			p.Coord = append(p.Coord, id)
		}
	}
	return p, nil
}

// PartialLen returns the packed partial length for one shard (or the
// coordinator set): the sum of the g-side ranks of its nodes — row ranks for
// the plain apply, column ranks for the transpose.
func (m *Matrix) PartialLen(nodes []int, transpose bool) int {
	total := 0
	for _, id := range nodes {
		if transpose {
			total += m.colRank(id)
		} else {
			total += m.ranks[id]
		}
	}
	return total
}

// ApplyShard runs the scatter half of the distributed apply for shard s: the
// full upward sweep (identical on every party) followed by the coupling
// sweep restricted to the shard's subtree nodes, returning the g segments
// packed in ascending node-id order. b is in original point ordering.
func (m *Matrix) ApplyShard(p *ShardPlan, s int, b []float64, transpose bool) ([]float64, error) {
	if s < 0 || s >= len(p.Nodes) {
		return nil, fmt.Errorf("core: ApplyShard shard %d outside plan of %d", s, len(p.Nodes))
	}
	if len(b) != m.N {
		return nil, fmt.Errorf("core: ApplyShard input length %d want %d", len(b), m.N)
	}
	ws := m.getWorkspace()
	defer m.putWorkspace(ws)
	m.Tree.PermuteVec(ws.bp, b)
	return m.applyShardPermuted(ws, ws.bp, p.Nodes[s], transpose), nil
}

// applyShardPermuted computes the packed coupling partials for one node set.
func (m *Matrix) applyShardPermuted(ws *Workspace, bp []float64, nodes []int, transpose bool) []float64 {
	ws.bind(m, m.vecKind(transpose))
	ws.curB = bp
	ws.runScatter(nodes)

	out := make([]float64, 0, m.PartialLen(nodes, transpose))
	for _, id := range nodes {
		out = append(out, seg(ws.g, ws.gOff, id)...)
	}
	return out
}

// runScatter drains the task graph as a scatter half: every upward task,
// the coupling tasks of nodes only, no downward or leaf work.
func (ws *Workspace) runScatter(nodes []int) {
	mark(ws.maskCoupling(), nodes)
	ws.scatter = true
	ws.runScheduled()
}

// vecKind is the vector apply variant for the transpose flag. Every block
// of a symmetric kernel is applied in its one stored orientation, so its
// transpose sweep would repeat the forward sweep's arithmetic exactly
// (Âᵀb ≡ Âb, bit for bit): it runs the forward sweep, pair twins included,
// and only unsymmetric kernels run the transpose sweep.
func (m *Matrix) vecKind(transpose bool) applyKind {
	if transpose && !m.Kern.Symmetric() {
		return applyTrans
	}
	return applyVec
}

// maskCoupling clears the workspace's coupling mask, installs it for the
// next scheduled run, and returns it for the caller to mark.
func (ws *Workspace) maskCoupling() []bool {
	if ws.mask == nil {
		ws.mask = make([]bool, len(ws.m.Tree.Nodes))
	}
	clear(ws.mask)
	ws.coupMask = ws.mask
	return ws.mask
}

// mark sets mask[id] for every id in nodes.
func mark(mask []bool, nodes []int) {
	for _, id := range nodes {
		mask[id] = true
	}
}

// checkPartials validates every supplied partial's length (width columns per
// rank row) before any sweep work runs. Nil partials are allowed: the
// gather recomputes them.
func (m *Matrix) checkPartials(p *ShardPlan, parts [][]float64, transpose bool, width int) error {
	for s, part := range parts {
		if part == nil {
			continue
		}
		if want := m.PartialLen(p.Nodes[s], transpose) * width; len(part) != want {
			return fmt.Errorf("core: shard %d partial length %d want %d", s, len(part), want)
		}
	}
	return nil
}

// maskGather installs the gather's coupling mask — coordinator nodes plus
// the nodes of every nil (recomputed) partial — and places each supplied
// partial into its nodes' g segments via segOf (node id -> segment). The
// drain's downward tasks then add into the placed segments exactly as they
// would into locally computed ones.
func (ws *Workspace) maskGather(p *ShardPlan, parts [][]float64, segOf func(id int) []float64) {
	mask := ws.maskCoupling()
	mark(mask, p.Coord)
	for s, part := range parts {
		if part == nil {
			mark(mask, p.Nodes[s])
			continue
		}
		off := 0
		for _, id := range p.Nodes[s] {
			gi := segOf(id)
			copy(gi, part[off:off+len(gi)])
			off += len(gi)
		}
	}
}

// ApplyGather runs the gather half: after validating every partial, one
// drain runs its own upward sweep, the coupling sweep for the
// coordinator-owned nodes over the placed shard partials (any nil entry is
// recomputed locally — the coordinator's shard-failure fallback), then the
// downward and leaf/nearfield sweeps. The result is bitwise-equal to
// m.ApplyTo (or ApplyTransposeTo) on the same inputs.
func (m *Matrix) ApplyGather(p *ShardPlan, b []float64, parts [][]float64, transpose bool) ([]float64, error) {
	if len(b) != m.N {
		return nil, fmt.Errorf("core: ApplyGather input length %d want %d", len(b), m.N)
	}
	if len(parts) != len(p.Nodes) {
		return nil, fmt.Errorf("core: ApplyGather got %d partials want %d", len(parts), len(p.Nodes))
	}
	ws := m.getWorkspace()
	defer m.putWorkspace(ws)
	m.Tree.PermuteVec(ws.bp, b)
	if err := m.applyGatherPermuted(ws, ws.yp, ws.bp, p, parts, transpose); err != nil {
		return nil, err
	}
	y := make([]float64, m.N)
	m.Tree.UnpermuteVec(y, ws.yp)
	return y, nil
}

func (m *Matrix) applyGatherPermuted(ws *Workspace, yp, bp []float64, p *ShardPlan, parts [][]float64, transpose bool) error {
	if err := m.checkPartials(p, parts, transpose, 1); err != nil {
		return err
	}
	ws.bind(m, m.vecKind(transpose))
	ws.curB, ws.curY = bp, yp
	ws.maskGather(p, parts, func(id int) []float64 { return seg(ws.g, ws.gOff, id) })
	ws.runScheduled()
	return nil
}

// ApplyBatchShard is the multi-RHS scatter half: packed per-node g panels
// (rank × k, row-major) in ascending node-id order for shard s. Batch sharding
// covers the plain product only, matching the single-node batch surface.
func (m *Matrix) ApplyBatchShard(p *ShardPlan, s int, B *mat.Dense) ([]float64, error) {
	if s < 0 || s >= len(p.Nodes) {
		return nil, fmt.Errorf("core: ApplyBatchShard shard %d outside plan of %d", s, len(p.Nodes))
	}
	if B.Rows != m.N {
		return nil, fmt.Errorf("core: ApplyBatchShard rows %d want %d", B.Rows, m.N)
	}
	k := B.Cols
	ws := m.getWorkspace()
	defer m.putWorkspace(ws)
	ws.bindBatch(m, B)
	nodes := p.Nodes[s]
	ws.runScatter(nodes)

	out := make([]float64, 0, m.PartialLen(nodes, false)*k)
	for _, id := range nodes {
		out = append(out, ws.gB[id].Data...)
	}
	return out, nil
}

// ApplyBatchGather is the multi-RHS gather half, bitwise-equal to
// m.ApplyBatchTo on the same inputs. Nil partials are recomputed locally.
func (m *Matrix) ApplyBatchGather(p *ShardPlan, Y, B *mat.Dense, parts [][]float64) error {
	if B.Rows != m.N {
		return fmt.Errorf("core: ApplyBatchGather rows %d want %d", B.Rows, m.N)
	}
	if len(parts) != len(p.Nodes) {
		return fmt.Errorf("core: ApplyBatchGather got %d partials want %d", len(parts), len(p.Nodes))
	}
	if err := m.checkPartials(p, parts, false, B.Cols); err != nil {
		return err
	}
	ws := m.getWorkspace()
	defer m.putWorkspace(ws)
	ws.bindBatch(m, B)
	ws.maskGather(p, parts, func(id int) []float64 { return ws.gB[id].Data })
	ws.runScheduled()
	ws.unpermuteBatch(Y)
	return nil
}
