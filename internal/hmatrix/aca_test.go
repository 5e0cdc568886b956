package hmatrix

import (
	"testing"

	"h2ds/internal/core"
	"h2ds/internal/kernel"
	"h2ds/internal/pointset"
)

func TestACACompressorAccuracy(t *testing.T) {
	pts := pointset.Cube(2000, 3, 20)
	b := randVec(2000, 21)
	want := core.DirectApply(pts, kernel.Coulomb{}, b)
	m, err := Build(pts, kernel.Coulomb{}, Config{Tol: 1e-7, LeafSize: 64, Compressor: "aca"})
	if err != nil {
		t.Fatal(err)
	}
	if e := relErr(m.Apply(b), want); e > 1e-5 {
		t.Fatalf("ACA compressor error %g", e)
	}
}

func TestACAAndIDAgree(t *testing.T) {
	// At equal tolerance the two compressors approximate the same blocks;
	// their products must agree to roughly that tolerance.
	pts := pointset.Sphere(1500, 22)
	b := randVec(1500, 23)
	tol := 1e-8
	mid, err := Build(pts, kernel.Exponential{}, Config{Tol: tol, LeafSize: 50, Compressor: "id"})
	if err != nil {
		t.Fatal(err)
	}
	maca, err := Build(pts, kernel.Exponential{}, Config{Tol: tol, LeafSize: 50, Compressor: "aca"})
	if err != nil {
		t.Fatal(err)
	}
	if e := relErr(maca.Apply(b), mid.Apply(b)); e > 1e-6 {
		t.Fatalf("compressors disagree by %g", e)
	}
}

func TestACARanksComparable(t *testing.T) {
	// ACA's adaptive ranks should land in the same ballpark as the ID path
	// on smooth kernels (both near-optimal for these blocks).
	pts := pointset.Cube(1500, 3, 24)
	mid, err := Build(pts, kernel.Coulomb{}, Config{Tol: 1e-6, LeafSize: 50, Compressor: "id"})
	if err != nil {
		t.Fatal(err)
	}
	maca, err := Build(pts, kernel.Coulomb{}, Config{Tol: 1e-6, LeafSize: 50, Compressor: "aca"})
	if err != nil {
		t.Fatal(err)
	}
	si, sa := mid.ComputeStats(), maca.ComputeStats()
	if sa.AvgRank > 3*si.AvgRank+5 {
		t.Fatalf("ACA avg rank %.1f far above ID %.1f", sa.AvgRank, si.AvgRank)
	}
}

func TestUnknownCompressorRejected(t *testing.T) {
	if _, err := Build(pointset.Cube(100, 3, 25), kernel.Coulomb{}, Config{Compressor: "svd"}); err == nil {
		t.Fatal("unknown compressor accepted")
	}
}
