package core

import (
	"bytes"
	"math"
	"testing"

	"h2ds/internal/kernel"
	"h2ds/internal/pointset"
)

// relTolSweep is the tolerance axis of the error-controlled build tests:
// loose enough to keep builds fast, tight enough to exercise rank growth.
var relTolSweep = []float64{1e-2, 1e-4, 1e-6}

// TestRelTolBuildErrorControlled checks the error-controlled contract: at
// every requested tolerance the a-posteriori estimate and an independent
// 12-row measurement both land within 10x of the request, and the estimate
// is recorded in BuildStats.
func TestRelTolBuildErrorControlled(t *testing.T) {
	pts := pointset.Cube(2000, 3, 11)
	b := randVec(2000, 12)
	for _, rt := range relTolSweep {
		m, err := Build(pts, kernel.Coulomb{}, Config{Kind: DataDriven, Mode: OnTheFly, RelTol: rt, LeafSize: 60})
		if err != nil {
			t.Fatal(err)
		}
		st := m.Stats()
		if st.RelTol != rt {
			t.Fatalf("reltol %g: stats report %g", rt, st.RelTol)
		}
		if st.EstRelErr <= 0 || st.EstRelErr > 10*rt {
			t.Fatalf("reltol %g: a-posteriori estimate %g outside (0, %g]", rt, st.EstRelErr, 10*rt)
		}
		y := m.Apply(b)
		if got := m.RelErrorVs(b, y, DefaultErrorRows, 13); got > 10*rt {
			t.Fatalf("reltol %g: measured error %g > 10x request", rt, got)
		}
		if len(st.LevelRanks) == 0 || st.LevelRanks[len(st.LevelRanks)-1].MaxRank == 0 {
			t.Fatalf("reltol %g: missing level rank summary: %+v", rt, st.LevelRanks)
		}
	}
}

// TestRelTolRanksAndMemoryMonotone tightens the tolerance and checks ranks
// and stored memory grow monotonically — the dial the registry's memory
// budget and the fused flop count both ride on.
func TestRelTolRanksAndMemoryMonotone(t *testing.T) {
	pts := pointset.Cube(2000, 3, 21)
	var prevRank int
	var prevMem int64
	for _, rt := range relTolSweep {
		m, err := Build(pts, kernel.Coulomb{}, Config{Kind: DataDriven, Mode: Normal, RelTol: rt, LeafSize: 60})
		if err != nil {
			t.Fatal(err)
		}
		st := m.Stats()
		mem := m.Memory().Total()
		if st.MaxRank < prevRank {
			t.Fatalf("reltol %g: max rank %d shrank below %d at looser tolerance", rt, st.MaxRank, prevRank)
		}
		if mem < prevMem {
			t.Fatalf("reltol %g: memory %d shrank below %d at looser tolerance", rt, mem, prevMem)
		}
		prevRank, prevMem = st.MaxRank, mem
	}
}

// TestRelTolSampleBudgetMonotone pins the tolerance -> anchor-net size
// calibration: tighter tolerances never sample less, and the derived budget
// never falls below the fixed-parameter default.
func TestRelTolSampleBudgetMonotone(t *testing.T) {
	for _, dim := range []int{2, 3, 6} {
		prev := 0
		for _, rt := range []float64{1e-1, 1e-2, 1e-4, 1e-6, 1e-8} {
			m := RelTolSampleBudget(rt, dim)
			if m < prev {
				t.Fatalf("dim %d: budget %d at reltol %g below %d at looser tolerance", dim, m, rt, prev)
			}
			if def := DefaultSampleBudget(rt, dim); m < def {
				t.Fatalf("dim %d reltol %g: budget %d below fixed-parameter default %d", dim, rt, m, def)
			}
			prev = m
		}
	}
}

// TestRelTolSerializeV3RoundTrip checks that a reltol-built matrix
// round-trips bitwise through the stream (RelTol and EstRelErr joined the
// format in version 3): write -> read -> write yields identical bytes, and
// the error-controlled metadata survives.
func TestRelTolSerializeV3RoundTrip(t *testing.T) {
	pts := pointset.Cube(1200, 3, 31)
	m, err := Build(pts, kernel.Coulomb{}, Config{Kind: DataDriven, Mode: Normal, RelTol: 1e-5, LeafSize: 60})
	if err != nil {
		t.Fatal(err)
	}
	var buf1 bytes.Buffer
	if _, err := m.WriteTo(&buf1); err != nil {
		t.Fatal(err)
	}
	m2, err := Read(bytes.NewReader(buf1.Bytes()), kernel.Coulomb{})
	if err != nil {
		t.Fatal(err)
	}
	var buf2 bytes.Buffer
	if _, err := m2.WriteTo(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
		t.Fatalf("round trip not bitwise: %d vs %d bytes", buf1.Len(), buf2.Len())
	}
	st, st2 := m.Stats(), m2.Stats()
	if st2.RelTol != st.RelTol || st2.EstRelErr != st.EstRelErr {
		t.Fatalf("reltol metadata lost: %g/%g vs %g/%g", st2.RelTol, st2.EstRelErr, st.RelTol, st.EstRelErr)
	}
	if len(st2.LevelRanks) != len(st.LevelRanks) {
		t.Fatalf("level ranks lost: %d vs %d levels", len(st2.LevelRanks), len(st.LevelRanks))
	}
	for i := range st.LevelRanks {
		if st2.LevelRanks[i] != st.LevelRanks[i] {
			t.Fatalf("level %d rank summary differs: %+v vs %+v", i, st2.LevelRanks[i], st.LevelRanks[i])
		}
	}
	b := randVec(1200, 32)
	y1, y2 := m.Apply(b), m2.Apply(b)
	for i := range y1 {
		if y1[i] != y2[i] {
			t.Fatalf("loaded reltol matrix differs at %d", i)
		}
	}
}

// TestRelTolRejectsBadValues checks Build fails fast on out-of-range RelTol.
func TestRelTolRejectsBadValues(t *testing.T) {
	pts := pointset.Cube(100, 3, 51)
	for _, rt := range []float64{-1e-3, 1, 2.5, math.NaN()} {
		if _, err := Build(pts, kernel.Coulomb{}, Config{RelTol: rt, LeafSize: 50}); err == nil {
			t.Fatalf("RelTol %g accepted", rt)
		}
	}
}
