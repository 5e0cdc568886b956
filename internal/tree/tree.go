// Package tree builds the adaptive geometric partition tree underlying the
// hierarchical matrix: recursive median bisection along the longest
// bounding-box axis, per-level node lists for level-parallel sweeps, and the
// well-separation machinery (interaction lists and nearfield lists) from the
// paper's §III-A.
//
// Points are permuted during construction so every node owns a contiguous
// index range [Start, End) of the permuted ordering; all downstream vectors
// (matvec inputs/outputs) live in that permuted order, and Perm maps back to
// the caller's original ordering.
package tree

import (
	"fmt"
	"sort"

	"h2ds/internal/par"
	"h2ds/internal/pointset"
)

// DefaultLeafSize is the default maximum number of points per leaf; the
// paper notes leaf populations "on the order of hundreds".
const DefaultLeafSize = 200

// DefaultEta is the paper's well-separation parameter: nodes i and j are
// admissible when max(diam(Xi), diam(Xj)) < 0.7 * dist(centers).
const DefaultEta = 0.7

// Node is one cluster in the partition tree.
type Node struct {
	ID       int
	Parent   int // -1 for the root
	Children []int
	Level    int
	// Start and End delimit this node's contiguous slice of the permuted
	// point ordering.
	Start, End int
	Box        pointset.BBox
	IsLeaf     bool
	// Interaction is the interaction list: admissible nodes whose parents
	// were not admissible with this node's ancestors (the farfield blocks
	// represented at this node).
	Interaction []int
	// Near lists the inadmissible leaf partners (only populated on leaves),
	// ascending; it always includes the leaf itself, and j ∈ Near(i) exactly
	// when i ∈ Near(j).
	Near []int
}

// Size returns the number of points owned by the node.
func (nd *Node) Size() int { return nd.End - nd.Start }

// Config controls tree construction.
type Config struct {
	// LeafSize is the maximum number of points in a leaf (0 = default).
	LeafSize int
	// Eta is the separation parameter (0 = default 0.7).
	Eta float64
}

// Tree is the partition hierarchy over a (permuted) point set.
type Tree struct {
	// Points holds the permuted points; Points.At(k) is original point
	// Perm[k].
	Points *pointset.Points
	// Perm maps permuted position -> original index.
	Perm []int
	// InvPerm maps original index -> permuted position.
	InvPerm []int
	Nodes   []Node
	// Levels[l] lists the node ids at depth l, in id order.
	Levels [][]int
	// Leaves lists all leaf node ids.
	Leaves   []int
	LeafSize int
	Eta      float64
}

// New partitions pts (which is copied, not modified) and computes the
// interaction and nearfield lists. The partition runs each level's nodes on
// pool (nil = serial); the tree is the same for every pool.
func New(pts *pointset.Points, cfg Config, pool *par.Pool) *Tree {
	if cfg.LeafSize <= 0 {
		cfg.LeafSize = DefaultLeafSize
	}
	if cfg.Eta <= 0 {
		cfg.Eta = DefaultEta
	}
	n := pts.Len()
	t := &Tree{
		Points:   &pointset.Points{Dim: pts.Dim, Coords: append([]float64(nil), pts.Coords...)},
		Perm:     make([]int, n),
		InvPerm:  make([]int, n),
		LeafSize: cfg.LeafSize,
		Eta:      cfg.Eta,
	}
	for i := range t.Perm {
		t.Perm[i] = i
	}

	t.buildStructure(n)
	t.partitionLevels(pool)
	for k, orig := range t.Perm {
		t.InvPerm[orig] = k
	}
	t.buildLists()
	return t
}

// buildStructure allocates the node hierarchy. The tree shape (ranges,
// parents, levels) depends only on n and LeafSize because the split point is
// always the range midpoint; which points land where is decided later by the
// geometric partitioning pass.
func (t *Tree) buildStructure(n int) {
	type job struct{ start, end, level, parent int }
	queue := []job{{0, n, 0, -1}}
	for len(queue) > 0 {
		j := queue[0]
		queue = queue[1:]
		id := len(t.Nodes)
		nd := Node{
			ID:     id,
			Parent: j.parent,
			Level:  j.level,
			Start:  j.start,
			End:    j.end,
			IsLeaf: j.end-j.start <= t.LeafSize,
		}
		if j.parent >= 0 {
			t.Nodes[j.parent].Children = append(t.Nodes[j.parent].Children, id)
		}
		for len(t.Levels) <= j.level {
			t.Levels = append(t.Levels, nil)
		}
		t.Levels[j.level] = append(t.Levels[j.level], id)
		if !nd.IsLeaf {
			mid := (j.start + j.end) / 2
			queue = append(queue,
				job{j.start, mid, j.level + 1, id},
				job{mid, j.end, j.level + 1, id})
		} else {
			t.Leaves = append(t.Leaves, id)
		}
		t.Nodes = append(t.Nodes, nd)
	}
	// The BFS above appended children out of id order relative to Leaves
	// discovery; Leaves is already ascending because ids are assigned in BFS
	// order. Nothing further to fix up.
}

// partitionLevels settles the point permutation level by level: once a
// node's parent has partitioned its range, the node computes its bounding
// box and, if internal, splits its own range at the median of the longest
// box axis. Nodes on a level are independent (disjoint ranges), which gives
// the level-parallel construction the paper describes.
func (t *Tree) partitionLevels(pool *par.Pool) {
	for _, level := range t.Levels {
		pool.For(len(level), func(k int) {
			nd := &t.Nodes[level[k]]
			nd.Box = t.rangeBBox(nd.Start, nd.End)
			if nd.IsLeaf {
				return
			}
			axis, _ := nd.Box.LongestAxis()
			mid := (nd.Start + nd.End) / 2
			t.selectNth(nd.Start, nd.End, mid, axis)
		})
	}
}

func (t *Tree) rangeBBox(start, end int) pointset.BBox {
	d := t.Points.Dim
	b := pointset.BBox{Min: make([]float64, d), Max: make([]float64, d)}
	if start >= end {
		return b
	}
	copy(b.Min, t.Points.At(start))
	copy(b.Max, t.Points.At(start))
	for i := start + 1; i < end; i++ {
		x := t.Points.At(i)
		for j, v := range x {
			if v < b.Min[j] {
				b.Min[j] = v
			}
			if v > b.Max[j] {
				b.Max[j] = v
			}
		}
	}
	return b
}

// swapPoints exchanges permuted positions a and b (coordinates and perm).
func (t *Tree) swapPoints(a, b int) {
	if a == b {
		return
	}
	d := t.Points.Dim
	pa := t.Points.Coords[a*d : a*d+d]
	pb := t.Points.Coords[b*d : b*d+d]
	for j := 0; j < d; j++ {
		pa[j], pb[j] = pb[j], pa[j]
	}
	t.Perm[a], t.Perm[b] = t.Perm[b], t.Perm[a]
}

// coord returns the axis coordinate of permuted point i.
func (t *Tree) coord(i, axis int) float64 {
	return t.Points.Coords[i*t.Points.Dim+axis]
}

// selectNth partially sorts [start, end) along axis so that position nth
// holds the element of rank nth-start and everything below/above it is on
// the correct side (Hoare quickselect with median-of-three pivoting).
func (t *Tree) selectNth(start, end, nth, axis int) {
	lo, hi := start, end-1
	for lo < hi {
		// Median-of-three pivot.
		mid := lo + (hi-lo)/2
		a, b, c := t.coord(lo, axis), t.coord(mid, axis), t.coord(hi, axis)
		var pivot float64
		switch {
		case (a <= b && b <= c) || (c <= b && b <= a):
			pivot = b
		case (b <= a && a <= c) || (c <= a && a <= b):
			pivot = a
		default:
			pivot = c
		}
		i, j := lo, hi
		for i <= j {
			for t.coord(i, axis) < pivot {
				i++
			}
			for t.coord(j, axis) > pivot {
				j--
			}
			if i <= j {
				t.swapPoints(i, j)
				i++
				j--
			}
		}
		switch {
		case nth <= j:
			hi = j
		case nth >= i:
			lo = i
		default:
			return
		}
	}
}

// Admissible reports whether nodes i and j satisfy the paper's
// well-separation criterion: max diameter strictly less than Eta times the
// distance between the box centers.
func (t *Tree) Admissible(i, j int) bool {
	ni, nj := &t.Nodes[i], &t.Nodes[j]
	di := ni.Box.Diameter()
	if dj := nj.Box.Diameter(); dj > di {
		di = dj
	}
	dist := pointset.Dist(ni.Box.Center(), nj.Box.Center())
	return di < t.Eta*dist
}

// buildLists performs the recursive dual traversal from (root, root)
// described in §III-A, filling interaction lists and nearfield lists.
func (t *Tree) buildLists() {
	if len(t.Nodes) == 0 {
		return
	}
	var visit func(i, j int)
	visit = func(i, j int) {
		ni, nj := &t.Nodes[i], &t.Nodes[j]
		if i == j {
			if ni.IsLeaf {
				ni.Near = append(ni.Near, i)
				return
			}
			ch := ni.Children
			for a := 0; a < len(ch); a++ {
				for b := a; b < len(ch); b++ {
					visit(ch[a], ch[b])
				}
			}
			return
		}
		if t.Admissible(i, j) {
			ni.Interaction = append(ni.Interaction, j)
			nj.Interaction = append(nj.Interaction, i)
			return
		}
		switch {
		case ni.IsLeaf && nj.IsLeaf:
			ni.Near = append(ni.Near, j)
			nj.Near = append(nj.Near, i)
		case ni.IsLeaf:
			for _, c := range nj.Children {
				visit(i, c)
			}
		case nj.IsLeaf:
			for _, c := range ni.Children {
				visit(c, j)
			}
		case ni.Box.Diameter() >= nj.Box.Diameter():
			for _, c := range ni.Children {
				visit(c, j)
			}
		default:
			for _, c := range nj.Children {
				visit(i, c)
			}
		}
	}
	visit(0, 0)
	// The apply chains each leaf's nearfield pairs in list order and needs
	// ascending lists to visit every pair in one global order; core.Read
	// rejects unsorted lists. Sorting makes both hold for any point set.
	for _, id := range t.Leaves {
		sort.Ints(t.Nodes[id].Near)
	}
}

// Root returns the root node id (always 0).
func (t *Tree) Root() int { return 0 }

// Cut returns the subtree cut at the given depth: every node at exactly
// that level plus every shallower leaf, ordered by point range. The cut is a
// partition of [0, n) — each point belongs to exactly one cut node — which
// is what makes it usable as a shard boundary for distributed sweeps.
func (t *Tree) Cut(level int) []int {
	var cut []int
	for i := range t.Nodes {
		nd := &t.Nodes[i]
		if nd.Level == level || (nd.IsLeaf && nd.Level < level) {
			cut = append(cut, nd.ID)
		}
	}
	sort.Slice(cut, func(a, b int) bool { return t.Nodes[cut[a]].Start < t.Nodes[cut[b]].Start })
	return cut
}

// Subtree returns root and all of its descendants in ascending id order.
func (t *Tree) Subtree(root int) []int {
	ids := []int{root}
	for k := 0; k < len(ids); k++ {
		ids = append(ids, t.Nodes[ids[k]].Children...)
	}
	sort.Ints(ids)
	return ids
}

// Depth returns the number of levels.
func (t *Tree) Depth() int { return len(t.Levels) }

// PermuteVec scatters a vector given in original point order into permuted
// order (dst[k] = src[Perm[k]]). dst must have the same length as src.
func (t *Tree) PermuteVec(dst, src []float64) {
	if len(dst) != len(src) || len(src) != len(t.Perm) {
		panic(fmt.Sprintf("tree: permute length mismatch %d %d %d", len(dst), len(src), len(t.Perm)))
	}
	for k, orig := range t.Perm {
		dst[k] = src[orig]
	}
}

// UnpermuteVec gathers a permuted-order vector back to original order
// (dst[Perm[k]] = src[k]).
func (t *Tree) UnpermuteVec(dst, src []float64) {
	if len(dst) != len(src) || len(src) != len(t.Perm) {
		panic(fmt.Sprintf("tree: unpermute length mismatch %d %d %d", len(dst), len(src), len(t.Perm)))
	}
	for k, orig := range t.Perm {
		dst[orig] = src[k]
	}
}

// Stats summarizes the tree for diagnostics and the bench harness.
type Stats struct {
	Nodes, Leaves, Depth     int
	MaxLeafSize, MinLeafSize int
	InteractionPairs         int // directed interaction-list entries
	NearPairs                int // directed nearfield entries (incl. self)
}

// ComputeStats walks the tree and returns summary statistics.
func (t *Tree) ComputeStats() Stats {
	s := Stats{Nodes: len(t.Nodes), Leaves: len(t.Leaves), Depth: t.Depth(), MinLeafSize: 1 << 30}
	for _, id := range t.Leaves {
		sz := t.Nodes[id].Size()
		if sz > s.MaxLeafSize {
			s.MaxLeafSize = sz
		}
		if sz < s.MinLeafSize {
			s.MinLeafSize = sz
		}
		s.NearPairs += len(t.Nodes[id].Near)
	}
	for i := range t.Nodes {
		s.InteractionPairs += len(t.Nodes[i].Interaction)
	}
	if s.Leaves == 0 {
		s.MinLeafSize = 0
	}
	return s
}

// Bytes returns the approximate memory footprint of the tree metadata
// (nodes, lists, permutations, boxes) plus the permuted coordinates; used by
// the deterministic memory accounting.
func (t *Tree) Bytes() int64 {
	var b int64
	b += t.Points.Bytes()
	b += int64(len(t.Perm)+len(t.InvPerm)) * 8
	for i := range t.Nodes {
		nd := &t.Nodes[i]
		b += 64 // fixed fields
		b += int64(len(nd.Children)+len(nd.Interaction)+len(nd.Near)) * 8
		b += int64(len(nd.Box.Min)+len(nd.Box.Max)) * 8
	}
	for _, l := range t.Levels {
		b += int64(len(l)) * 8
	}
	b += int64(len(t.Leaves)) * 8
	return b
}
