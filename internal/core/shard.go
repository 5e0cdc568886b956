package core

import (
	"fmt"
	"sort"
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
	nodes := p.Nodes[s]
	ws.bindVec(m, b, transpose)
	mark(ws.maskCoupling(), nodes)
	ws.scatter = true
	ws.runScheduled()

	out := make([]float64, 0, m.PartialLen(nodes, transpose))
	for _, id := range nodes {
		out = append(out, ws.out.panel[id].Data...)
	}
	return out, nil
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

// ApplyGather runs the gather half: after validating every partial, one
// drain runs its own upward sweep, the coupling sweep for the
// coordinator-owned nodes over the placed shard partials (any nil entry is
// recomputed locally — the coordinator's shard-failure fallback), then the
// downward and leaf/nearfield sweeps. The result is bitwise-equal to
// m.ApplyTo (or ApplyTransposeTo) on the same inputs.
func (m *Matrix) ApplyGather(p *ShardPlan, b []float64, parts [][]float64, transpose bool) ([]float64, error) {
	ws := m.getWorkspace()
	defer m.putWorkspace(ws)
	y := make([]float64, m.N)
	if err := m.applyGatherWith(ws, y, b, p, parts, transpose); err != nil {
		return nil, err
	}
	return y, nil
}

// applyGatherWith is ApplyGather into y on a caller-owned workspace. Every
// partial's length is checked before any sweep work runs; nil partials are
// allowed. The coupling mask covers the coordinator nodes plus the nodes of
// every nil (recomputed) partial, and each supplied partial is placed into
// its nodes' g panels, where the drain's downward tasks add into it exactly
// as into locally computed ones.
func (m *Matrix) applyGatherWith(ws *Workspace, y, b []float64, p *ShardPlan, parts [][]float64, transpose bool) error {
	if len(b) != m.N {
		return fmt.Errorf("core: ApplyGather input length %d want %d", len(b), m.N)
	}
	if len(parts) != len(p.Nodes) {
		return fmt.Errorf("core: ApplyGather got %d partials want %d", len(parts), len(p.Nodes))
	}
	for s, part := range parts {
		if want := m.PartialLen(p.Nodes[s], transpose); part != nil && len(part) != want {
			return fmt.Errorf("core: shard %d partial length %d want %d", s, len(part), want)
		}
	}
	ws.bindVec(m, b, transpose)
	mask := ws.maskCoupling()
	mark(mask, p.Coord)
	for s, part := range parts {
		if part == nil {
			mark(mask, p.Nodes[s])
			continue
		}
		off := 0
		for _, id := range p.Nodes[s] {
			off += copy(ws.out.panel[id].Data, part[off:])
		}
	}
	ws.runScheduled()
	m.Tree.UnpermuteVec(y, ws.yp)
	return nil
}
