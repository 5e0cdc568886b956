package mat

import (
	"math"
	"math/rand"
	"testing"

	"h2ds/internal/par"
)

// gradedDense returns a random matrix whose column j is scaled by
// decay^j — the adversarial case for pivoted QR, where the norm downdate
// cancels catastrophically and the recompute trigger must fire.
func gradedDense(rng *rand.Rand, r, c int, decay float64) *Dense {
	a := randDense(rng, r, c)
	s := 1.0
	for j := 0; j < c; j++ {
		for i := 0; i < r; i++ {
			a.Set(i, j, a.At(i, j)*s)
		}
		s *= decay
	}
	return a
}

// shuffleCols permutes the columns of a in place with rng so graded norms
// are not already in pivot order.
func shuffleCols(rng *rand.Rand, a *Dense) {
	for j := a.Cols - 1; j > 0; j-- {
		k := rng.Intn(j + 1)
		if k != j {
			swapColumns(a, j, k)
		}
	}
}

func samePivots(t *testing.T, label string, b, u *CPQR) {
	t.Helper()
	if b.Rank != u.Rank {
		t.Fatalf("%s: blocked rank %d != unblocked rank %d", label, b.Rank, u.Rank)
	}
	for k := 0; k < b.Rank; k++ {
		if b.Perm[k] != u.Perm[k] {
			t.Fatalf("%s: pivot %d differs: blocked %d unblocked %d\nblocked %v\nunblocked %v",
				label, k, b.Perm[k], u.Perm[k], b.Perm[:b.Rank], u.Perm[:u.Rank])
		}
	}
}

// reconErr is the relative Frobenius error of the retained Q·R against the
// pivoted original.
func reconErr(a *Dense, c *CPQR) float64 {
	qr := Mul(c.Q(), c.R())
	ap := permuteCols(a, c.Perm)
	return qr.Sub(ap).FrobNorm() / math.Max(a.FrobNorm(), 1e-300)
}

func TestCPQRBlockedPivotsMatchRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(90))
	for _, sz := range [][2]int{{80, 120}, {120, 64}, {150, 150}, {48, 200}, {200, 48}} {
		a := randDense(rng, sz[0], sz[1])
		b := newCPQRBlocked(a.Clone(), 0, 0, nil)
		u := NewCPQRUnblocked(a, 0, 0)
		samePivots(t, "random", b, u)
		if eb, eu := reconErr(a, b), reconErr(a, u); eb > 2*eu+1e-14 {
			t.Fatalf("random %dx%d: blocked recon err %g > 2x unblocked %g", sz[0], sz[1], eb, eu)
		}
	}
}

func TestCPQRBlockedPivotsMatchRankDeficient(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for _, k := range []int{3, 12, 40} {
		a := randLowRank(rng, 120, 90, k)
		b := newCPQRBlocked(a.Clone(), 1e-10, 0, nil)
		u := NewCPQRUnblocked(a, 1e-10, 0)
		if b.Rank != k {
			t.Fatalf("rank-%d matrix: blocked detected rank %d", k, b.Rank)
		}
		samePivots(t, "rank-deficient", b, u)
		if eb, eu := reconErr(a, b), reconErr(a, u); eb > 2*eu+1e-12 {
			t.Fatalf("rank-%d: blocked recon err %g > 2x unblocked %g", k, eb, eu)
		}
	}
}

func TestCPQRBlockedPivotsMatchGradedNorms(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	// Norm profile spanning ~38 decades across the columns; the recompute
	// trigger fires repeatedly, exercising the early-panel-exit path.
	a := gradedDense(rng, 100, 128, 0.5)
	shuffleCols(rng, a)
	b := newCPQRBlocked(a.Clone(), 0, 0, nil)
	u := NewCPQRUnblocked(a, 0, 0)
	samePivots(t, "graded", b, u)

	// And with a tolerance stop partway down the grade.
	bt := newCPQRBlocked(a.Clone(), 1e-8, 0, nil)
	ut := NewCPQRUnblocked(a, 1e-8, 0)
	samePivots(t, "graded+tol", bt, ut)
	if bt.Rank >= 128 || bt.Rank == 0 {
		t.Fatalf("graded+tol expected partial rank, got %d", bt.Rank)
	}
}

func TestCPQRBlockedMaxRankCap(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	a := randDense(rng, 100, 100)
	b := newCPQRBlocked(a.Clone(), 0, 37, nil)
	u := NewCPQRUnblocked(a, 0, 37)
	if b.Rank != 37 {
		t.Fatalf("rank cap ignored: got %d", b.Rank)
	}
	samePivots(t, "maxrank", b, u)
}

func TestCPQRBlockedZeroAndTiny(t *testing.T) {
	if r := newCPQRBlocked(NewDense(60, 60), 1e-12, 0, nil).Rank; r != 0 {
		t.Fatalf("zero matrix rank %d", r)
	}
	rng := rand.New(rand.NewSource(94))
	// One nonzero column: rank must stop at 1 under any panel width.
	a := NewDense(60, 60)
	for i := 0; i < 60; i++ {
		a.Set(i, 17, rng.NormFloat64())
	}
	b := newCPQRBlocked(a.Clone(), 1e-12, 0, nil)
	if b.Rank != 1 || b.Perm[0] != 17 {
		t.Fatalf("single-column matrix: rank %d pivot %d", b.Rank, b.Perm[0])
	}
}

// TestCPQRBlockedDeterminism checks run-to-run and pool-size-independence
// bitwise determinism of the blocked factorization.
func TestCPQRBlockedDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(95))
	a := gradedDense(rng, 300, 200, 0.8)
	shuffleCols(rng, a)
	ref := newCPQRBlocked(a.Clone(), 1e-12, 0, nil)
	check := func(label string, c *CPQR) {
		t.Helper()
		if c.Rank != ref.Rank {
			t.Fatalf("%s: rank %d != %d", label, c.Rank, ref.Rank)
		}
		for i, v := range ref.Fac.Data {
			if c.Fac.Data[i] != v {
				t.Fatalf("%s: Fac differs at flat index %d: %g != %g", label, i, c.Fac.Data[i], v)
			}
		}
		for i, v := range ref.Tau {
			if c.Tau[i] != v {
				t.Fatalf("%s: Tau differs at %d", label, i)
			}
		}
		for i, v := range ref.Perm {
			if c.Perm[i] != v {
				t.Fatalf("%s: Perm differs at %d", label, i)
			}
		}
	}
	check("rerun", newCPQRBlocked(a.Clone(), 1e-12, 0, nil))
	for _, w := range []int{1, 2, 7} {
		pool := par.NewPool(w)
		check("pool", newCPQRBlocked(a.Clone(), 1e-12, 0, pool))
		pool.Close()
	}
}

// TestRowIDBlockedMatchesUnblocked pins the property construction actually
// relies on: identical skeleton selection through the RowID wrapper.
func TestRowIDBlockedMatchesUnblocked(t *testing.T) {
	rng := rand.New(rand.NewSource(96))
	a := randLowRank(rng, 90, 130, 25)
	b := NewRowID(a, 1e-9, 0, nil)
	u := NewRowIDUnblocked(a, 1e-9, 0)
	if b.Rank != u.Rank {
		t.Fatalf("rank %d != %d", b.Rank, u.Rank)
	}
	for i := range b.Skel {
		if b.Skel[i] != u.Skel[i] {
			t.Fatalf("skeleton differs at %d: %d != %d", i, b.Skel[i], u.Skel[i])
		}
	}
	eb := b.Reconstruct(a).Sub(a).FrobNorm() / a.FrobNorm()
	eu := u.Reconstruct(a).Sub(a).FrobNorm() / a.FrobNorm()
	if eb > 2*eu+1e-12 {
		t.Fatalf("blocked RowID recon err %g > 2x unblocked %g", eb, eu)
	}
}
