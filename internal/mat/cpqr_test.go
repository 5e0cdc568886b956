package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// permuteCols returns a with columns ordered by perm.
func permuteCols(a *Dense, perm []int) *Dense {
	p := NewDense(a.Rows, a.Cols)
	for j, src := range perm {
		for i := 0; i < a.Rows; i++ {
			p.Set(i, j, a.At(i, src))
		}
	}
	return p
}

func TestCPQRFullRankReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 10; trial++ {
		m := 4 + rng.Intn(30)
		n := 1 + rng.Intn(30)
		a := randDense(rng, m, n)
		c := NewCPQR(a, 0, 0, nil)
		c.CheckShapes()
		if c.Rank != min(m, n) {
			t.Fatalf("trial %d: rank %d want %d", trial, c.Rank, min(m, n))
		}
		qrp := Mul(c.Q(), c.R())
		ap := permuteCols(a, c.Perm)
		if !qrp.Equal(ap, 1e-10) {
			t.Fatalf("trial %d: QR != AP, err %g", trial, qrp.Sub(ap).MaxAbs())
		}
	}
}

func TestCPQRRankDetection(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, k := range []int{1, 2, 5, 9} {
		a := randLowRank(rng, 40, 25, k)
		c := NewCPQR(a, 1e-10, 0, nil)
		if c.Rank != k {
			t.Fatalf("rank-%d matrix detected as rank %d", k, c.Rank)
		}
	}
}

func TestCPQRMaxRankCap(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	a := randDense(rng, 20, 20)
	c := NewCPQR(a, 0, 7, nil)
	if c.Rank != 7 {
		t.Fatalf("rank cap ignored: got %d", c.Rank)
	}
}

func TestCPQRZeroMatrix(t *testing.T) {
	c := NewCPQR(NewDense(5, 4), 1e-12, 0, nil)
	if c.Rank != 0 {
		t.Fatalf("zero matrix rank %d", c.Rank)
	}
}

func TestCPQRDiagonalNonIncreasing(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	a := randDense(rng, 30, 18)
	c := NewCPQR(a, 0, 0, nil)
	prev := math.Inf(1)
	for k := 0; k < c.Rank; k++ {
		d := math.Abs(c.Fac.At(k, k))
		// Pivoting guarantees this up to roundoff slack.
		if d > prev*(1+1e-8) {
			t.Fatalf("pivot magnitudes increase at %d: %g after %g", k, d, prev)
		}
		prev = d
	}
}

func TestCPQRTruncationErrorBound(t *testing.T) {
	// For a matrix with rapidly decaying singular values, truncating at tol
	// must produce an approximation error within a modest factor of
	// tol * ||A||.
	rng := rand.New(rand.NewSource(24))
	n := 30
	u := NewQR(randDense(rng, n, n)).Q()
	v := NewQR(randDense(rng, n, n)).Q()
	d := NewDense(n, n)
	for i := 0; i < n; i++ {
		d.Set(i, i, math.Pow(10, -float64(i)/2))
	}
	a := Mul(Mul(u, d), v.T())
	tol := 1e-6
	c := NewCPQR(a, tol, 0, nil)
	// Approximation via retained factors.
	approxP := Mul(c.Q(), c.R())
	ap := permuteCols(a, c.Perm)
	err := approxP.Sub(ap).FrobNorm() / a.FrobNorm()
	if err > 100*tol {
		t.Fatalf("truncation error %g exceeds 100*tol=%g", err, 100*tol)
	}
	if c.Rank >= n {
		t.Fatalf("expected truncation, got full rank %d", c.Rank)
	}
}

func TestCPQRPermIsPermutationProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := 1 + r.Intn(15)
		n := 1 + r.Intn(15)
		c := NewCPQR(randDense(r, m, n), 0, 0, nil)
		seen := make([]bool, n)
		for _, p := range c.Perm {
			if p < 0 || p >= n || seen[p] {
				return false
			}
			seen[p] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
