// Command h2view renders the paper's Fig 2 as text: the leaf-by-leaf block
// structure of the H² matrix with per-block basis ranks — interpolation in
// the lower triangle, data-driven in the upper triangle, nearfield blocks
// marked "**" (the red cells of the figure).
//
// Usage:
//
//	h2view -n 2000 -tol 1e-7 -dist cube
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"h2ds/internal/core"
	"h2ds/internal/kernel"
	"h2ds/internal/pointset"
)

// coveringRank finds the block that represents the (la, lb) leaf pair in
// the hierarchical partition and returns the row-side basis rank, or -1 for
// a nearfield pair.
func coveringRank(m *core.Matrix, ancestors [][]int, la, lb int) int {
	t := m.Tree
	if la == lb {
		return -1
	}
	for _, j := range t.Nodes[la].Near {
		if j == lb {
			return -1
		}
	}
	inIL := func(i, j int) bool {
		for _, v := range t.Nodes[i].Interaction {
			if v == j {
				return true
			}
		}
		return false
	}
	for _, ai := range ancestors[la] {
		for _, aj := range ancestors[lb] {
			if inIL(ai, aj) {
				return m.Rank(ai)
			}
		}
	}
	return -2 // covered only through a deeper or unexpected path
}

func main() {
	n := flag.Int("n", 2000, "number of points")
	dist := flag.String("dist", "cube", "distribution: cube, sphere, dino")
	kern := flag.String("kernel", "coulomb", "kernel: "+strings.Join(kernel.Names(), ", "))
	tol := flag.Float64("tol", 1e-7, "target relative accuracy (the paper's Fig 2 uses 1e-7)")
	reltol := flag.Float64("reltol", 0, "error-controlled build: ranks fall out of this tolerance instead of the fixed parameters (0 = use -tol)")
	leaf := flag.Int("leaf", 100, "leaf size")
	seed := flag.Int64("seed", 1, "workload seed")
	flag.Parse()

	pts, ok := pointset.Named(*dist, *n, 3, *seed)
	if !ok {
		fmt.Fprintf(os.Stderr, "h2view: unknown distribution %q\n", *dist)
		os.Exit(2)
	}
	k, err := kernel.ByName(*kern)
	if err != nil {
		fmt.Fprintf(os.Stderr, "h2view: %v\n", err)
		os.Exit(2)
	}
	dd, err := core.Build(pts, k, core.Config{Kind: core.DataDriven, Mode: core.OnTheFly, Tol: *tol, RelTol: *reltol, LeafSize: *leaf})
	if err != nil {
		fmt.Fprintln(os.Stderr, "h2view:", err)
		os.Exit(1)
	}
	// The tree is a deterministic function of the points, leaf size and
	// eta, so this build's node ids match dd's.
	ip, err := core.Build(pts, k, core.Config{Kind: core.Interpolation, Mode: core.OnTheFly, Tol: *tol, RelTol: *reltol,
		LeafSize: *leaf})
	if err != nil {
		fmt.Fprintln(os.Stderr, "h2view:", err)
		os.Exit(1)
	}

	t := dd.Tree
	leaves := t.Leaves
	if len(leaves) > 48 {
		fmt.Fprintf(os.Stderr, "h2view: %d leaves is too wide to render; lower -n or raise -leaf\n", len(leaves))
		os.Exit(2)
	}
	// Ancestor chains (leaf included), root last.
	anc := make([][]int, len(t.Nodes))
	for _, l := range leaves {
		for v := l; v != -1; v = t.Nodes[v].Parent {
			anc[l] = append(anc[l], v)
		}
	}

	fmt.Printf("block ranks over %d leaves (n=%d %s, %s, tol=%.0e)\n", len(leaves), *n, *dist, k.Name(), *tol)
	fmt.Printf("lower triangle: interpolation (rank %d everywhere) — upper triangle: data-driven\n", ip.Stats().MaxRank)
	fmt.Printf("'**' nearfield (dense, the figure's red cells), '..' diagonal\n\n")
	for a, la := range leaves {
		for b, lb := range leaves {
			switch {
			case a == b:
				fmt.Printf("  .. ")
			default:
				m := dd
				if a > b { // lower triangle: interpolation
					m = ip
				}
				r := coveringRank(m, anc, la, lb)
				switch {
				case r == -1:
					fmt.Printf("  ** ")
				case r < 0:
					fmt.Printf("  ?? ")
				default:
					fmt.Printf("%4d ", r)
				}
			}
		}
		fmt.Println()
	}
	sd := dd.Stats()
	fmt.Printf("\ndata-driven: max rank %d, avg leaf rank %.1f — interpolation rank: %d\n",
		sd.MaxRank, float64(sd.SumLeafRank)/float64(sd.Leaves), ip.Stats().MaxRank)
}
