package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRowIDExactLowRank(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for _, k := range []int{1, 3, 6} {
		a := randLowRank(rng, 50, 20, k)
		id := NewRowID(a, 1e-11, 0, nil)
		if id.Rank != k {
			t.Fatalf("rank-%d matrix: ID rank %d", k, id.Rank)
		}
		rec := id.Reconstruct(a)
		relErr := rec.Sub(a).FrobNorm() / a.FrobNorm()
		if relErr > 1e-9 {
			t.Fatalf("rank-%d: reconstruction error %g", k, relErr)
		}
	}
}

func TestRowIDIdentityOnSkeleton(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	a := randLowRank(rng, 30, 15, 5)
	id := NewRowID(a, 1e-11, 0, nil)
	for k, row := range id.Skel {
		for j := 0; j < id.Rank; j++ {
			want := 0.0
			if j == k {
				want = 1
			}
			if id.T.At(row, j) != want {
				t.Fatalf("T[%d,%d]=%g want %g (skeleton row of skeleton index %d)",
					row, j, id.T.At(row, j), want, k)
			}
		}
	}
}

func TestRowIDSkeletonUniqueAndInRange(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := 1 + r.Intn(25)
		n := 1 + r.Intn(25)
		a := randDense(r, m, n)
		id := NewRowID(a, 1e-8, 0, nil)
		seen := map[int]bool{}
		for _, s := range id.Skel {
			if s < 0 || s >= m || seen[s] {
				return false
			}
			seen[s] = true
		}
		return id.Rank == len(id.Skel) && id.T.Rows == m && id.T.Cols == id.Rank
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestRowIDToleranceError(t *testing.T) {
	// Decaying-spectrum matrix: relative reconstruction error should track
	// the requested tolerance within a modest factor.
	rng := rand.New(rand.NewSource(32))
	n := 40
	u := NewQR(randDense(rng, n, n)).Q()
	v := NewQR(randDense(rng, n, n)).Q()
	d := NewDense(n, n)
	for i := 0; i < n; i++ {
		d.Set(i, i, math.Pow(10, -float64(i)/3))
	}
	a := Mul(Mul(u, d), v.T())
	for _, tol := range []float64{1e-3, 1e-6, 1e-9} {
		id := NewRowID(a, tol, 0, nil)
		relErr := id.Reconstruct(a).Sub(a).FrobNorm() / a.FrobNorm()
		if relErr > 1000*tol {
			t.Fatalf("tol %g: error %g", tol, relErr)
		}
		if id.Rank == n && tol > 1e-12 {
			t.Fatalf("tol %g: no truncation happened", tol)
		}
	}
}

func TestRowIDMaxRankCap(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	a := randDense(rng, 20, 20)
	id := NewRowID(a, 0, 4, nil)
	if id.Rank != 4 {
		t.Fatalf("rank cap ignored: %d", id.Rank)
	}
}

func TestRowIDEmptyAndZero(t *testing.T) {
	id := NewRowID(NewDense(0, 5), 1e-8, 0, nil)
	if id.Rank != 0 || len(id.Skel) != 0 {
		t.Fatal("empty matrix should give empty ID")
	}
	idz := NewRowID(NewDense(6, 4), 1e-8, 0, nil)
	if idz.Rank != 0 {
		t.Fatalf("zero matrix ID rank %d", idz.Rank)
	}
	if idz.T.Rows != 6 || idz.T.Cols != 0 {
		t.Fatalf("zero matrix T shape %dx%d", idz.T.Rows, idz.T.Cols)
	}
}

func TestRowIDTallThinFullRank(t *testing.T) {
	// More rows than columns: rank limited by columns; every selected
	// skeleton row must reproduce A to near machine precision.
	rng := rand.New(rand.NewSource(34))
	a := randDense(rng, 60, 7)
	id := NewRowID(a, 1e-13, 0, nil)
	if id.Rank != 7 {
		t.Fatalf("rank %d want 7", id.Rank)
	}
	relErr := id.Reconstruct(a).Sub(a).FrobNorm() / a.FrobNorm()
	if relErr > 1e-9 {
		t.Fatalf("reconstruction error %g", relErr)
	}
}
