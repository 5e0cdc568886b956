package sample

import (
	"math"
	"math/rand"
	"testing"

	"h2ds/internal/pointset"
)

// Reference pins s to its pre-acceleration scan loops: the oracle the
// equivalence tests below compare the tuned scans against. Output is
// bitwise-identical to the tuned path; only AnchorNet has a distinct
// reference scan, other samplers pass through unchanged.
func Reference(s Sampler) Sampler {
	if _, ok := s.(AnchorNet); ok {
		return refAnchorNet{}
	}
	return s
}

// refAnchorNet is AnchorNet running the reference nearest-candidate scan.
type refAnchorNet struct{}

func (refAnchorNet) Name() string { return AnchorNet{}.Name() }

func (refAnchorNet) Sample(pts *pointset.Points, cand []int, m int) []int {
	return anchorNetSample(pts, cand, m, func(pts *pointset.Points, cand []int, _ pointset.BBox) nearestSearch {
		return func(anchor []float64) int { return nearestRef(pts, cand, anchor) }
	})
}

// nearestRef is the pre-acceleration scan (Dist2 over At views). Like every
// other search it returns the winner's position in cand.
func nearestRef(pts *pointset.Points, cand []int, anchor []float64) int {
	best, bestD := -1, math.Inf(1)
	for pos, i := range cand {
		if dd := pointset.Dist2(anchor, pts.At(i)); dd < bestD {
			best, bestD = pos, dd
		}
	}
	return best
}

// TestAnchorNetReferenceIdentical: the tuned nearest-candidate scan and the
// pre-acceleration reference scan must select byte-identical sample sets —
// the contract that keeps the reference a valid oracle for the tuned scan.
func TestAnchorNetReferenceIdentical(t *testing.T) {
	ref := Reference(AnchorNet{})
	if ref.Name() != "anchornet" {
		t.Fatalf("reference sampler name diverged: %q", ref.Name())
	}
	for _, dim := range []int{1, 2, 3, 5} {
		for _, n := range []int{10, 100, 700} {
			pts := pointset.New(n, dim)
			rng := rand.New(rand.NewSource(int64(dim*1000 + n)))
			for i := range pts.Coords {
				pts.Coords[i] = rng.NormFloat64()
			}
			// Include a coincident pair so duplicate-selection ties exercise
			// the strict-improvement rule.
			if n > 1 {
				copy(pts.At(1), pts.At(0))
			}
			cand := allIdx(n)
			for _, m := range []int{1, 5, n / 2, n} {
				if m < 1 {
					continue
				}
				got := AnchorNet{}.Sample(pts, cand, m)
				want := ref.Sample(pts, cand, m)
				if len(got) != len(want) {
					t.Fatalf("dim %d n %d m %d: %d vs %d selections", dim, n, m, len(got), len(want))
				}
				for k := range got {
					if got[k] != want[k] {
						t.Fatalf("dim %d n %d m %d: selection %d differs: %d vs %d",
							dim, n, m, k, got[k], want[k])
					}
				}
			}
		}
	}
}

// TestAnchorNetGridIdentical stresses the cell-grid search against the
// reference scan on geometries that exercise its edge cases: tight clusters
// (many shells crossed, duplicate selections), a collapsed axis (planar
// points, degenerate cell extents), a coordinate grid (massed distance
// ties), and sets large enough for multi-shell early termination.
func TestAnchorNetGridIdentical(t *testing.T) {
	ref := Reference(AnchorNet{})
	gen := map[string]func(n int) *pointset.Points{
		"clusters": func(n int) *pointset.Points {
			pts := pointset.New(n, 3)
			rng := rand.New(rand.NewSource(int64(n)))
			for i := 0; i < n; i++ {
				c := float64(i % 5)
				p := pts.At(i)
				for j := range p {
					p[j] = 10*c + 0.01*rng.NormFloat64()
				}
			}
			return pts
		},
		"planar": func(n int) *pointset.Points {
			pts := pointset.New(n, 3)
			rng := rand.New(rand.NewSource(int64(n) + 1))
			for i := 0; i < n; i++ {
				p := pts.At(i)
				p[0], p[1], p[2] = rng.Float64(), rng.Float64(), 4.5
			}
			return pts
		},
		"lattice": func(n int) *pointset.Points {
			pts := pointset.New(n, 3)
			for i := 0; i < n; i++ {
				p := pts.At(i)
				p[0], p[1], p[2] = float64(i%10), float64((i/10)%10), float64(i/100)
			}
			return pts
		},
	}
	for name, g := range gen {
		for _, n := range []int{200, 1000, 5000} {
			pts := g(n)
			cand := allIdx(n)
			for _, m := range []int{16, 120, n / 3} {
				got := AnchorNet{}.Sample(pts, cand, m)
				want := ref.Sample(pts, cand, m)
				if len(got) != len(want) {
					t.Fatalf("%s n %d m %d: %d vs %d selections", name, n, m, len(got), len(want))
				}
				for k := range got {
					if got[k] != want[k] {
						t.Fatalf("%s n %d m %d: selection %d differs: %d vs %d",
							name, n, m, k, got[k], want[k])
					}
				}
			}
		}
	}
}

// TestReferencePassThrough: non-anchornet samplers have no separate
// reference implementation and pass through unchanged.
func TestReferencePassThrough(t *testing.T) {
	s := Reference(FarthestPoint{})
	if _, ok := s.(FarthestPoint); !ok {
		t.Fatalf("FarthestPoint should pass through Reference, got %T", s)
	}
}
