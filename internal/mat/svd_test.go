package mat

import (
	"math"
	"math/rand"
	"testing"
)

func TestSVDReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for trial := 0; trial < 8; trial++ {
		m := 2 + rng.Intn(25)
		n := 2 + rng.Intn(25)
		a := randDense(rng, m, n)
		s := NewSVD(a)
		k := min(m, n)
		if s.U.Cols != k || s.V.Cols != k || len(s.S) != k {
			t.Fatalf("thin shapes wrong: U %dx%d V %dx%d S %d", s.U.Rows, s.U.Cols, s.V.Rows, s.V.Cols, len(s.S))
		}
		// U diag(S) Vᵀ == A.
		us := s.U.Clone()
		for j := 0; j < k; j++ {
			for i := 0; i < m; i++ {
				us.Set(i, j, us.At(i, j)*s.S[j])
			}
		}
		rec := Mul(us, s.V.T())
		if !rec.Equal(a, 1e-10) {
			t.Fatalf("trial %d (%dx%d): SVD reconstruction error %g", trial, m, n, rec.Sub(a).MaxAbs())
		}
		// Singular values sorted, non-negative.
		for j := 1; j < k; j++ {
			if s.S[j] > s.S[j-1]+1e-12 || s.S[j] < 0 {
				t.Fatalf("singular values unsorted or negative: %v", s.S)
			}
		}
	}
}

func TestSVDOrthogonality(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	a := randDense(rng, 15, 9)
	s := NewSVD(a)
	if !Mul(s.U.T(), s.U).Equal(Eye(9), 1e-10) {
		t.Fatal("U columns not orthonormal")
	}
	if !Mul(s.V.T(), s.V).Equal(Eye(9), 1e-10) {
		t.Fatal("V columns not orthonormal")
	}
}

func TestSVDKnownValues(t *testing.T) {
	// diag(3, 2, 1) has singular values 3, 2, 1.
	a := NewDense(3, 3)
	a.Set(0, 0, 3)
	a.Set(1, 1, -2) // sign must not matter
	a.Set(2, 2, 1)
	s := NewSVD(a)
	want := []float64{3, 2, 1}
	for i, w := range want {
		if math.Abs(s.S[i]-w) > 1e-12 {
			t.Fatalf("S[%d]=%g want %g", i, s.S[i], w)
		}
	}
}

func TestSVDRankAndNorm2(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	a := randLowRank(rng, 20, 20, 4)
	s := NewSVD(a)
	if got := s.Rank(1e-10); got != 4 {
		t.Fatalf("Rank = %d want 4", got)
	}
}

func TestPInvProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	a := randDense(rng, 12, 7) // full column rank with probability 1
	p := NewSVD(a).PInv(0)
	// A⁺ A = I (n-by-n) for full column rank.
	if !Mul(p, a).Equal(Eye(7), 1e-9) {
		t.Fatal("pinv: A⁺A != I")
	}
	// Moore–Penrose: A A⁺ A = A.
	if !Mul(a, Mul(p, a)).Equal(a, 1e-9) {
		t.Fatal("pinv: A A⁺ A != A")
	}
}

func TestPInvRankDeficient(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	a := randLowRank(rng, 10, 10, 3)
	p := NewSVD(a).PInv(1e-10)
	if !Mul(a, Mul(p, a)).Equal(a, 1e-8) {
		t.Fatal("rank-deficient pinv: A A⁺ A != A")
	}
	if !Mul(p, Mul(a, p)).Equal(p, 1e-8) {
		t.Fatal("rank-deficient pinv: A⁺ A A⁺ != A⁺")
	}
}

func TestSVDWideMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	a := randDense(rng, 4, 17)
	s := NewSVD(a)
	us := s.U.Clone()
	for j := 0; j < 4; j++ {
		for i := 0; i < 4; i++ {
			us.Set(i, j, us.At(i, j)*s.S[j])
		}
	}
	if !Mul(us, s.V.T()).Equal(a, 1e-10) {
		t.Fatal("wide-matrix SVD reconstruction failed")
	}
}
