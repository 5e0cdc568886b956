// Package sample implements the data-driven sampling machinery of the
// paper: point-subset samplers (the anchor-net Nyström sampler of ref [25],
// plus farthest-point and uniform-random baselines for ablation) and the
// hierarchical sampling sweep of Algorithm 1 that produces the farfield
// surrogate sets Y*_i for every tree node in O(n) total work.
//
// Sampling operates on point indices only and never evaluates the kernel —
// the property that lets one hierarchical sampling be amortized across many
// kernels (paper §VI-A).
package sample

import (
	"fmt"
	"math"
	"math/rand"

	"h2ds/internal/par"
	"h2ds/internal/pointset"
	"h2ds/internal/tree"
)

// Sampler selects a representative subset of at most m points from a
// candidate set. cand holds indices into pts; the result is a subset of
// cand (ordering chosen by the sampler, duplicates removed).
type Sampler interface {
	Sample(pts *pointset.Points, cand []int, m int) []int
	Name() string
}

// AnchorNet is the paper's sampler (§III-D): it lays a low-discrepancy
// lattice (Halton sequence) over the bounding box of the candidate set and
// keeps, for each lattice anchor, the nearest candidate point. The lattice
// is dimension independent, which is what makes the data-driven method
// viable beyond three dimensions.
type AnchorNet struct{}

// Name implements Sampler.
func (AnchorNet) Name() string { return "anchornet" }

// halton returns the i-th element (1-based internally) of the van der
// Corput sequence in the given base.
func halton(i, base int) float64 {
	f := 1.0
	r := 0.0
	for i > 0 {
		f /= float64(base)
		r += f * float64(i%base)
		i /= base
	}
	return r
}

// haltonBases are the first primes, one per dimension.
var haltonBases = []int{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43}

// Sample implements Sampler.
func (AnchorNet) Sample(pts *pointset.Points, cand []int, m int) []int {
	return anchorNetSample(pts, cand, m, newGridNearest)
}

// nearestSearch answers nearest-candidate queries for one fixed candidate
// set, returning the winner's position in cand (so callers can key per-point
// state off a dense position index); a searchFactory builds one per Sample
// call so per-set structures (the cell grid) are amortized over every anchor
// of that call.
type nearestSearch func(anchor []float64) int

type searchFactory func(pts *pointset.Points, cand []int, box pointset.BBox) nearestSearch

// anchorNetSample is the anchor sweep shared by the tuned and reference
// nearest-candidate searches: both pick bitwise-identical points, so they
// are interchangeable mid-hierarchy.
func anchorNetSample(pts *pointset.Points, cand []int, m int, factory searchFactory) []int {
	if len(cand) <= m {
		return append([]int(nil), cand...)
	}
	d := pts.Dim
	box := pointset.NewBBox(pts, cand)
	widths := make([]float64, d)
	for j := 0; j < d; j++ {
		widths[j] = box.Max[j] - box.Min[j]
	}
	nearest := factory(pts, cand, box)
	anchor := make([]float64, d)
	chosen := make([]int, 0, m)
	// Every search variant resolves distance ties to the smallest candidate
	// position, so positions map one-to-one onto selectable points and a
	// dense position-keyed slice replaces a point-index map.
	taken := make([]bool, len(cand))
	for a := 1; len(chosen) < m; a++ {
		for j := 0; j < d; j++ {
			base := haltonBases[j%len(haltonBases)]
			anchor[j] = box.Min[j] + widths[j]*halton(a, base)
		}
		best := nearest(anchor)
		if !taken[best] {
			taken[best] = true
			chosen = append(chosen, cand[best])
		}
		// Candidates can be exhausted by duplicates faster than anchors; the
		// a > 4m guard bounds the scan when many anchors collapse onto the
		// same few points (e.g. tight clusters).
		if a > 4*m {
			break
		}
	}
	return chosen
}

// nearestTo scans the candidate coordinates directly for the candidate
// position closest to anchor, with the common dimensions unrolled. Each
// squared distance is accumulated coordinate-ascending exactly like
// pointset.Dist2 and ties break on the first strict improvement, so the
// selected position is bitwise-identical to the reference Dist2 scan the
// package tests keep as an oracle. It is the small-candidate-set fallback
// of the cell-grid search.
func nearestTo(pts *pointset.Points, cand []int, anchor []float64) int {
	best, bestD := -1, math.Inf(1)
	co := pts.Coords
	switch pts.Dim {
	case 2:
		ax, ay := anchor[0], anchor[1]
		for pos, i := range cand {
			p := co[i*2 : i*2+2 : i*2+2]
			dx, dy := ax-p[0], ay-p[1]
			if dd := dx*dx + dy*dy; dd < bestD {
				best, bestD = pos, dd
			}
		}
	case 3:
		ax, ay, az := anchor[0], anchor[1], anchor[2]
		for pos, i := range cand {
			p := co[i*3 : i*3+3 : i*3+3]
			dx, dy, dz := ax-p[0], ay-p[1], az-p[2]
			if dd := dx*dx + dy*dy + dz*dz; dd < bestD {
				best, bestD = pos, dd
			}
		}
	default:
		d := pts.Dim
		for pos, i := range cand {
			p := co[i*d : i*d+d : i*d+d]
			var dd float64
			for j, a := range anchor {
				dj := a - p[j]
				dd += dj * dj
			}
			if dd < bestD {
				best, bestD = pos, dd
			}
		}
	}
	return best
}

// gridMinCand is the candidate-set size below which the cell grid costs more
// to build than the linear scans it replaces.
const gridMinCand = 128

// gridMaxCells bounds the flattened cell count so degenerate aspect ratios
// cannot balloon the bucket arrays.
const gridMaxCells = 1 << 16

// newGridNearest is the tuned search factory: large candidate sets get a
// uniform cell grid queried by expanding Chebyshev shells; small or fully
// degenerate (zero-extent) sets fall back to the linear nearestTo scan. The
// selected candidate is always bitwise-identical to the linear scan's (see
// candGrid.query).
func newGridNearest(pts *pointset.Points, cand []int, box pointset.BBox) nearestSearch {
	if len(cand) >= gridMinCand {
		if g := newCandGrid(pts, cand, box); g != nil {
			return g.query
		}
	}
	return func(anchor []float64) int { return nearestTo(pts, cand, anchor) }
}

// candGrid buckets one candidate set into a uniform grid over its bounding
// box for exact nearest-candidate queries.
type candGrid struct {
	pts     *pointset.Points
	cand    []int
	min     []float64 // bbox lower corner
	inv     []float64 // cells[j] / width[j] (0 on collapsed axes)
	cells   []int     // cells per axis (1 on collapsed axes)
	minEdge float64   // smallest edge among axes with >= 2 cells
	start   []int32   // CSR offsets per flattened cell
	items   []int32   // positions into cand, cell-major, cand order within a cell
	// query scratch (Sample calls are single-goroutine; parallelism in the
	// hierarchy sweep is across nodes, each with its own grid).
	c, lo, hi, idx []int
}

// newCandGrid returns nil when every axis is collapsed (all candidates
// coincide), in which case a grid cannot beat the linear scan anyway.
func newCandGrid(pts *pointset.Points, cand []int, box pointset.BBox) *candGrid {
	d := pts.Dim
	// Aim for about two candidates per cell on the non-degenerate axes,
	// splitting the cell budget evenly among them.
	live := 0
	for j := 0; j < d; j++ {
		if box.Max[j] > box.Min[j] {
			live++
		}
	}
	if live == 0 {
		return nil
	}
	perAxis := int(math.Pow(float64(len(cand))/2, 1/float64(live)))
	if perAxis < 2 {
		perAxis = 2
	}
	g := &candGrid{
		pts: pts, cand: cand,
		min: box.Min, inv: make([]float64, d), cells: make([]int, d),
		minEdge: math.Inf(1),
		c:       make([]int, d), lo: make([]int, d), hi: make([]int, d), idx: make([]int, d),
	}
	total := 1
	for j := 0; j < d; j++ {
		w := box.Max[j] - box.Min[j]
		if w <= 0 || total*perAxis > gridMaxCells {
			g.cells[j] = 1
			continue
		}
		g.cells[j] = perAxis
		g.inv[j] = float64(perAxis) / w
		if edge := w / float64(perAxis); edge < g.minEdge {
			g.minEdge = edge
		}
		total *= perAxis
	}
	if total == 1 {
		return nil
	}
	// Counting sort into cell buckets, preserving cand order within a cell —
	// the order the tie rule (first strict improvement) is defined over.
	g.start = make([]int32, total+1)
	g.items = make([]int32, len(cand))
	cells := make([]int32, len(cand))
	for p, i := range cand {
		cells[p] = int32(g.cellOf(pts.At(i)))
		g.start[cells[p]+1]++
	}
	for c := 1; c <= total; c++ {
		g.start[c] += g.start[c-1]
	}
	next := make([]int32, total)
	copy(next, g.start[:total])
	for p := range cand {
		g.items[next[cells[p]]] = int32(p)
		next[cells[p]]++
	}
	return g
}

// cellOf maps a coordinate to its flattened cell index.
func (g *candGrid) cellOf(x []float64) int {
	cell := 0
	for j, cj := range g.cells {
		k := 0
		if cj > 1 {
			k = int((x[j] - g.min[j]) * g.inv[j])
			if k < 0 {
				k = 0
			} else if k >= cj {
				k = cj - 1
			}
		}
		cell = cell*cj + k
	}
	return cell
}

// query returns the candidate nearest to anchor, bitwise-identical to the
// linear scan: it tracks the lexicographic minimum of (squared distance,
// cand position) — exactly the point the first-strict-improvement linear
// scan ends on — over expanding Chebyshev cell shells, and stops after shell
// t only when bestD < ((t-0.25)·minEdge)². Any unscanned candidate then sits
// at least one whole cell edge away per shell beyond t (minus cell-assignment
// rounding, which the quarter-edge slack dwarfs), so its distance is
// strictly larger and it can neither win nor tie.
func (g *candGrid) query(anchor []float64) int {
	d := len(g.cells)
	maxShell := 0
	for j := 0; j < d; j++ {
		k := 0
		if cj := g.cells[j]; cj > 1 {
			k = int((anchor[j] - g.min[j]) * g.inv[j])
			if k < 0 {
				k = 0
			} else if k >= cj {
				k = cj - 1
			}
			if k > maxShell {
				maxShell = k
			}
			if s := cj - 1 - k; s > maxShell {
				maxShell = s
			}
		}
		g.c[j] = k
	}
	co := g.pts.Coords
	bestPos := -1
	bestD := math.Inf(1)
	// scanRun visits the contiguous flattened cells [first, last]: with the
	// last axis varying fastest, their CSR item ranges are adjacent, so the
	// whole run is one slice of items. The dominant 3-D distance is inlined
	// (this loop sees every scanned candidate).
	var ax, ay, az float64
	if d == 3 {
		ax, ay, az = anchor[0], anchor[1], anchor[2]
	}
	scanRun := func(first, last int) {
		for _, pos32 := range g.items[g.start[first]:g.start[last+1]] {
			pos := int(pos32)
			i := g.cand[pos]
			var dd float64
			switch d {
			case 3:
				q := co[i*3 : i*3+3 : i*3+3]
				dx, dy, dz := ax-q[0], ay-q[1], az-q[2]
				dd = dx*dx + dy*dy + dz*dz
			case 2:
				q := co[i*2 : i*2+2 : i*2+2]
				dx, dy := anchor[0]-q[0], anchor[1]-q[1]
				dd = dx*dx + dy*dy
			default:
				q := co[i*d : i*d+d : i*d+d]
				for j, a := range anchor {
					dj := a - q[j]
					dd += dj * dj
				}
			}
			if dd < bestD || (dd == bestD && pos < bestPos) {
				bestD, bestPos = dd, pos
			}
		}
	}
	for t := 0; t <= maxShell; t++ {
		// Walk the cells at Chebyshev distance exactly t from c within the
		// clipped box [c-t, c+t] (earlier shells were already scanned).
		if d == 3 {
			// The dominant case, walked directly: whenever the outer two
			// axes already realize distance t, the whole inner row of cells
			// qualifies and is scanned as one contiguous run; otherwise only
			// the two inner faces do.
			cx, cy, cz := g.c[0], g.c[1], g.c[2]
			cy2, cz2 := g.cells[1], g.cells[2]
			loz, hiz := max(cz-t, 0), min(cz+t, cz2-1)
			for ix := max(cx-t, 0); ix <= min(cx+t, g.cells[0]-1); ix++ {
				sx := abs(ix - cx)
				for iy := max(cy-t, 0); iy <= min(cy+t, cy2-1); iy++ {
					base := (ix*cy2 + iy) * cz2
					if sy := abs(iy - cy); sx == t || sy == t {
						scanRun(base+loz, base+hiz)
						continue
					}
					if cz-t >= 0 {
						scanRun(base+cz-t, base+cz-t)
					}
					if t > 0 && cz+t < cz2 {
						scanRun(base+cz+t, base+cz+t)
					}
				}
			}
		} else {
			for j := 0; j < d; j++ {
				g.lo[j] = max(g.c[j]-t, 0)
				g.hi[j] = min(g.c[j]+t, g.cells[j]-1)
				g.idx[j] = g.lo[j]
			}
			for {
				cheb, cell := 0, 0
				for j := 0; j < d; j++ {
					if s := abs(g.idx[j] - g.c[j]); s > cheb {
						cheb = s
					}
					cell = cell*g.cells[j] + g.idx[j]
				}
				if cheb == t {
					scanRun(cell, cell)
				}
				j := d - 1
				for ; j >= 0; j-- {
					g.idx[j]++
					if g.idx[j] <= g.hi[j] {
						break
					}
					g.idx[j] = g.lo[j]
				}
				if j < 0 {
					break
				}
			}
		}
		if bestPos >= 0 {
			if b := (float64(t) - 0.25) * g.minEdge; b > 0 && bestD < b*b {
				break
			}
		}
	}
	return bestPos
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// FarthestPoint is the classic farthest-point (k-center) sampler: start
// from the candidate nearest the box center, then greedily add the point
// maximizing the minimum distance to the selected set.
type FarthestPoint struct{}

// Name implements Sampler.
func (FarthestPoint) Name() string { return "fps" }

// Sample implements Sampler.
func (FarthestPoint) Sample(pts *pointset.Points, cand []int, m int) []int {
	if len(cand) <= m {
		return append([]int(nil), cand...)
	}
	box := pointset.NewBBox(pts, cand)
	center := box.Center()
	first, bestD := 0, math.Inf(1)
	for k, i := range cand {
		if dd := pointset.Dist2(center, pts.At(i)); dd < bestD {
			first, bestD = k, dd
		}
	}
	chosen := make([]int, 0, m)
	chosen = append(chosen, cand[first])
	minD := make([]float64, len(cand))
	for k, i := range cand {
		minD[k] = pointset.Dist2(pts.At(cand[first]), pts.At(i))
	}
	for len(chosen) < m {
		far, farD := -1, -1.0
		for k, dd := range minD {
			if dd > farD {
				far, farD = k, dd
			}
		}
		if farD <= 0 {
			break // all remaining candidates coincide with selections
		}
		chosen = append(chosen, cand[far])
		for k, i := range cand {
			if dd := pointset.Dist2(pts.At(cand[far]), pts.At(i)); dd < minD[k] {
				minD[k] = dd
			}
		}
	}
	return chosen
}

// Random is the original Nyström baseline: a uniform random subset. The
// seed makes runs reproducible.
type Random struct {
	Seed int64
}

// Name implements Sampler.
func (Random) Name() string { return "random" }

// Sample implements Sampler.
func (r Random) Sample(pts *pointset.Points, cand []int, m int) []int {
	if len(cand) <= m {
		return append([]int(nil), cand...)
	}
	// Derive a per-call seed from the candidate set so different nodes draw
	// different (but reproducible) subsets.
	h := r.Seed
	for _, c := range cand[:min(len(cand), 8)] {
		h = h*1000003 + int64(c)
	}
	rng := rand.New(rand.NewSource(h))
	perm := rng.Perm(len(cand))[:m]
	out := make([]int, m)
	for k, p := range perm {
		out[k] = cand[p]
	}
	return out
}

// Named returns a sampler by harness name ("anchornet", "fps", "random").
func Named(name string) (Sampler, bool) {
	switch name {
	case "anchornet":
		return AnchorNet{}, true
	case "fps":
		return FarthestPoint{}, true
	case "random":
		return Random{Seed: 1}, true
	default:
		return nil, false
	}
}

// Hierarchy holds the output of the hierarchical sampling sweep
// (Algorithm 1): for every node i, the self surrogate X*_i and the farfield
// surrogate Y*_i, both as permuted point indices into tr.Points.
type Hierarchy struct {
	XStar [][]int
	YStar [][]int
}

// Run executes Algorithm 1 on the tree: a bottom-to-top sweep building the
// self surrogates X*_i and a top-to-bottom sweep building the farfield
// surrogates Y*_i from interaction-list surrogates plus the parent's
// inherited Y*. Nodes on a level are processed in parallel on pool (nil =
// serial); the hierarchy is the same for every pool.
//
// budget is the per-node sample size m (the paper's O(1) node cost).
func Run(tr *tree.Tree, s Sampler, budget int, pool *par.Pool) *Hierarchy {
	n := len(tr.Nodes)
	h := &Hierarchy{XStar: make([][]int, n), YStar: make([][]int, n)}

	// Bottom-to-top: leaves sample their own points; parents sample the
	// union of their children's samples.
	for l := tr.Depth() - 1; l >= 0; l-- {
		level := tr.Levels[l]
		pool.For(len(level), func(k int) {
			id := level[k]
			nd := &tr.Nodes[id]
			var cand []int
			if nd.IsLeaf {
				cand = make([]int, nd.Size())
				for p := 0; p < nd.Size(); p++ {
					cand[p] = nd.Start + p
				}
			} else {
				for _, c := range nd.Children {
					cand = append(cand, h.XStar[c]...)
				}
			}
			h.XStar[id] = s.Sample(tr.Points, cand, budget)
		})
	}

	// Top-to-bottom: Y*_i = Sample( ∪_{j ∈ IL(i)} X*_j  ∪  Y*_parent ).
	for l := 0; l < tr.Depth(); l++ {
		level := tr.Levels[l]
		pool.For(len(level), func(k int) {
			id := level[k]
			nd := &tr.Nodes[id]
			var cand []int
			for _, j := range nd.Interaction {
				cand = append(cand, h.XStar[j]...)
			}
			if nd.Parent >= 0 {
				cand = append(cand, h.YStar[nd.Parent]...)
			}
			h.YStar[id] = s.Sample(tr.Points, cand, budget)
		})
	}
	return h
}

// Bytes returns the memory footprint of the stored sample index sets.
func (h *Hierarchy) Bytes() int64 {
	var b int64
	for i := range h.XStar {
		b += int64(len(h.XStar[i])+len(h.YStar[i])) * 8
	}
	return b
}

// Key returns a stable identity string for a sampler — its name plus every
// parameter that changes its output. Construction caches use it (together
// with the point geometry and tree parameters) to decide whether two builds
// would run the identical Algorithm 1 sweep; two samplers with equal keys
// must produce identical Hierarchy output on identical trees and budgets.
func Key(s Sampler) string {
	switch ss := s.(type) {
	case AnchorNet:
		return "anchornet"
	case FarthestPoint:
		return "fps"
	case Random:
		return fmt.Sprintf("random:%d", ss.Seed)
	default:
		return fmt.Sprintf("%T:%+v", s, s)
	}
}
