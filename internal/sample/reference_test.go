package sample

import (
	"math/rand"
	"testing"

	"h2ds/internal/pointset"
)

// TestAnchorNetReferenceIdentical: the tuned nearest-candidate scan and the
// pre-acceleration reference scan must select byte-identical sample sets —
// the contract that keeps the reference a valid oracle for the tuned scan.
func TestAnchorNetReferenceIdentical(t *testing.T) {
	ref := Reference(AnchorNet{})
	if ref.Name() != "anchornet" || Key(ref) != Key(AnchorNet{}) {
		t.Fatalf("reference sampler identity diverged: name %q key %q", ref.Name(), Key(ref))
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
