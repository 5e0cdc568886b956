package core

import (
	"bytes"
	"fmt"
	"math"
	"sync"
	"testing"

	"h2ds/internal/kernel"
	"h2ds/internal/mat"
	"h2ds/internal/pointset"
)

// bitsEqualVec fails unless got and want are identical float64 bit patterns.
func bitsEqualVec(t *testing.T, tag string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d want %d", tag, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d = %v want %v", tag, i, got[i], want[i])
		}
	}
}

// storedBytes is the hybrid budget that stores every block: the footprint the
// candidate cost model assigns to the full set.
func (m *Matrix) storedBytesForTest() int64 {
	var total int64
	for _, c := range m.blockCandidates() {
		total += storedBlockBytes(c.elems)
	}
	return total
}

// TestFusedOTFMatchesSeedBitwise pins the fused on-the-fly sweeps (vector,
// transpose, batch) against the seed assemble-then-multiply kernels on the
// level-synchronous reference sweeps, on the same matrix, bitwise, for a
// symmetric and an unsymmetric kernel.
func TestFusedOTFMatchesSeedBitwise(t *testing.T) {
	pts := pointset.Cube(3000, 3, 91)
	b := randVec(3000, 92)
	B := mat.NewDenseData(3000, 3, randVec(9000, 93))
	kernels := []kernel.Pairwise{kernel.Coulomb{}, kernel.Gaussian{}, drift3()}
	for _, k := range kernels {
		m, err := Build(pts, k, Config{Kind: DataDriven, Mode: OnTheFly, Tol: 1e-6, LeafSize: 60})
		if err != nil {
			t.Fatal(err)
		}
		wantY := refApply(m, b, false, true)
		wantT := refApply(m, b, true, true)
		wantB := refApplyBatch(m, B, true)
		bitsEqualVec(t, k.Name()+"/apply", m.Apply(b), wantY)
		bitsEqualVec(t, k.Name()+"/transpose", m.ApplyTranspose(b), wantT)
		bitsEqualVec(t, k.Name()+"/batch", m.ApplyBatch(B).Data, wantB.Data)
	}
}

// TestStorageModesBitwise pins the one-arithmetic contract of the memory
// modes: every block is summed in its stored orientation whether its
// numbers come from a store or a fused evaluation, so OnTheFly, Hybrid at
// 0%, 50% and 100% of the full block footprint, and a Normal matrix's
// WithStorageBudget downgrades all reproduce the Normal build bit for bit —
// apply, transpose and batch, for a symmetric and an unsymmetric kernel.
// For the symmetric kernel the transpose equals the apply too. It also
// checks each budget's hit/miss counters and stored footprint.
func TestStorageModesBitwise(t *testing.T) {
	pts := pointset.Cube(3000, 3, 95)
	b := randVec(3000, 96)
	B := mat.NewDenseData(3000, 3, randVec(9000, 97))
	kernels := []kernel.Pairwise{kernel.Coulomb{}, drift3()}
	for _, k := range kernels {
		cfg := Config{Kind: DataDriven, Mode: Normal, Tol: 1e-6, LeafSize: 60}
		norm, err := Build(pts, k, cfg)
		if err != nil {
			t.Fatal(err)
		}
		wantY := norm.Apply(b)
		wantT := norm.ApplyTranspose(b)
		wantB := norm.ApplyBatch(B)
		if k.Symmetric() {
			bitsEqualVec(t, k.Name()+"/normal transpose vs apply", wantT, wantY)
		}
		check := func(tag string, m *Matrix) {
			t.Helper()
			bitsEqualVec(t, tag+"/apply", m.Apply(b), wantY)
			bitsEqualVec(t, tag+"/transpose", m.ApplyTranspose(b), wantT)
			bitsEqualVec(t, tag+"/batch", m.ApplyBatch(B).Data, wantB.Data)
		}
		cfg.Mode = OnTheFly
		otf, err := Build(pts, k, cfg)
		if err != nil {
			t.Fatal(err)
		}
		check(k.Name()+"/on-the-fly", otf)

		full := norm.storedBytesForTest()
		for _, frac := range []float64{0, 0.5, 1} {
			budget := int64(frac * float64(full))
			cfg.Mode, cfg.StorageBudget = Hybrid, budget
			h, err := Build(pts, k, cfg)
			if err != nil {
				t.Fatal(err)
			}
			tag := fmt.Sprintf("%s/hybrid-%v", k.Name(), frac)
			check(tag, h)
			check(tag+"/downgrade", norm.WithStorageBudget(budget))

			ss := h.SweepStats()
			switch frac {
			case 0:
				if ss.HybridHits != 0 || ss.HybridMisses == 0 {
					t.Fatalf("%s: 0%% budget hits=%d misses=%d", tag, ss.HybridHits, ss.HybridMisses)
				}
			case 1:
				if ss.HybridMisses != 0 || ss.HybridHits == 0 {
					t.Fatalf("%s: 100%% budget hits=%d misses=%d", tag, ss.HybridHits, ss.HybridMisses)
				}
				if stored := h.coup.Len() + h.near.Len(); stored == 0 {
					t.Fatalf("%s: full budget stored no blocks", tag)
				}
			default:
				if ss.HybridHits == 0 || ss.HybridMisses == 0 {
					t.Fatalf("%s: 50%% budget hits=%d misses=%d (want both nonzero)", tag, ss.HybridHits, ss.HybridMisses)
				}
			}
			mem := h.Memory()
			if frac > 0 && mem.Coupling+mem.Nearfield == 0 {
				t.Fatalf("%s: hybrid MemoryStats reports no stored blocks", tag)
			}
			// Bytes() carries a few bytes of fixed CSR-index overhead per
			// store; allow that floor over the budget.
			if got := mem.Coupling + mem.Nearfield; frac < 1 && got > budget+128 {
				t.Fatalf("%s: stored %d bytes exceeds budget %d", tag, got, budget)
			}
		}
	}
}

// TestWithStorageBudgetMatchesHybridBuild checks the registry downgrade path:
// deriving a hybrid view from a Normal build must behave exactly like a
// from-scratch hybrid build at the same budget (and like its parent, as
// every storage mode does), and must not disturb the parent.
func TestWithStorageBudgetMatchesHybridBuild(t *testing.T) {
	pts := pointset.Cube(2500, 3, 101)
	b := randVec(2500, 102)
	m, err := Build(pts, kernel.Exponential{}, Config{Kind: DataDriven, Mode: Normal, Tol: 1e-6, LeafSize: 60})
	if err != nil {
		t.Fatal(err)
	}
	parentWant := m.Apply(b)
	full := m.storedBytesForTest()
	budget := full / 2
	down := m.WithStorageBudget(budget)
	if down.Cfg.Mode != Hybrid || down.Cfg.StorageBudget != budget {
		t.Fatalf("downgrade config = %v/%d", down.Cfg.Mode, down.Cfg.StorageBudget)
	}
	ref, err := Build(pts, kernel.Exponential{}, Config{Kind: DataDriven, Mode: Hybrid, StorageBudget: budget, Tol: 1e-6, LeafSize: 60})
	if err != nil {
		t.Fatal(err)
	}
	bitsEqualVec(t, "downgrade/apply", down.Apply(b), ref.Apply(b))
	bitsEqualVec(t, "downgrade/parent-apply", down.Apply(b), parentWant)
	bitsEqualVec(t, "downgrade/parent-intact", m.Apply(b), parentWant)
	if got, want := down.Memory().Coupling+down.Memory().Nearfield, ref.Memory().Coupling+ref.Memory().Nearfield; got != want {
		t.Fatalf("downgrade stored %d bytes, fresh hybrid build stored %d", got, want)
	}
}

// TestHybridConcurrentApplyStress drives concurrent vector, transpose, and
// batch applies through a half-budget hybrid matrix; run under -race this
// checks the hybrid counters and shared frozen stores for data races.
func TestHybridConcurrentApplyStress(t *testing.T) {
	pts := pointset.Cube(1500, 3, 111)
	m, err := Build(pts, kernel.Coulomb{}, Config{Kind: DataDriven, Mode: Hybrid, StorageBudget: 1 << 18, Tol: 1e-5, LeafSize: 50})
	if err != nil {
		t.Fatal(err)
	}
	b := randVec(1500, 112)
	want := m.Apply(b)
	wantT := m.ApplyTranspose(b)
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			B := mat.NewDenseData(1500, 2, randVec(3000, int64(200+g)))
			for it := 0; it < 4; it++ {
				switch (g + it) % 3 {
				case 0:
					bitsEqualVec(t, "stress/apply", m.Apply(b), want)
				case 1:
					bitsEqualVec(t, "stress/transpose", m.ApplyTranspose(b), wantT)
				default:
					m.ApplyBatch(B)
				}
			}
		}(g)
	}
	wg.Wait()
	ss := m.SweepStats()
	if ss.Applies == 0 || ss.HybridHits+ss.HybridMisses == 0 {
		t.Fatalf("stress recorded no hybrid traffic: %+v", ss)
	}
}

// TestHybridSerializeRoundTrip checks a hybrid matrix survives WriteTo/Read
// with its budget, mode, and bitwise apply results intact.
func TestHybridSerializeRoundTrip(t *testing.T) {
	pts := pointset.Cube(1800, 3, 121)
	b := randVec(1800, 122)
	m, err := Build(pts, kernel.Matern32{}, Config{Kind: DataDriven, Mode: Hybrid, StorageBudget: 1 << 19, Tol: 1e-6, LeafSize: 60})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := Read(&buf, kernel.Matern32{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Cfg.Mode != Hybrid || r.Cfg.StorageBudget != m.Cfg.StorageBudget {
		t.Fatalf("round-trip config %v/%d want %v/%d", r.Cfg.Mode, r.Cfg.StorageBudget, m.Cfg.Mode, m.Cfg.StorageBudget)
	}
	if got, want := r.coup.Len()+r.near.Len(), m.coup.Len()+m.near.Len(); got != want {
		t.Fatalf("round-trip stored %d blocks want %d", got, want)
	}
	bitsEqualVec(t, "roundtrip/apply", r.Apply(b), m.Apply(b))
	bitsEqualVec(t, "roundtrip/transpose", r.ApplyTranspose(b), m.ApplyTranspose(b))
}

// TestOtfAssemblyStatsRecorded checks the new SweepStats fields: on-the-fly
// applies must accumulate assembly time, Normal-mode applies must not.
func TestOtfAssemblyStatsRecorded(t *testing.T) {
	pts := pointset.Cube(1200, 3, 131)
	b := randVec(1200, 132)
	otf, err := Build(pts, kernel.Coulomb{}, Config{Kind: DataDriven, Mode: OnTheFly, Tol: 1e-5, LeafSize: 50})
	if err != nil {
		t.Fatal(err)
	}
	otf.Apply(b)
	if ss := otf.SweepStats(); ss.OtfAssemblyNS == 0 {
		t.Fatalf("on-the-fly apply recorded no assembly time: %+v", ss)
	} else if ss.HybridHits != 0 || ss.HybridMisses != 0 {
		t.Fatalf("on-the-fly apply recorded hybrid counters: %+v", ss)
	}
	norm, err := Build(pts, kernel.Coulomb{}, Config{Kind: DataDriven, Mode: Normal, Tol: 1e-5, LeafSize: 50})
	if err != nil {
		t.Fatal(err)
	}
	norm.Apply(b)
	if ss := norm.SweepStats(); ss.OtfAssemblyNS != 0 || ss.HybridHits != 0 || ss.HybridMisses != 0 {
		t.Fatalf("normal-mode apply recorded otf stats: %+v", ss)
	}
}
