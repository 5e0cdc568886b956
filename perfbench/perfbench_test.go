package main

import (
	"encoding/json"
	"os"
	"testing"

	"h2ds/internal/tree"
)

func TestMinSamples(t *testing.T) {
	for q, want := range map[float64]int{0.5: 20, 0.9: 100, 0.99: 1000} {
		if got := minSamples(q); got != want {
			t.Errorf("minSamples(%g) = %d, want %d", q, got, want)
		}
	}
}

func TestQuantileTailRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // reversed: quantile must sort
		}
		return xs
	}
	if _, err := quantile(seq(99), 0.9); err == nil {
		t.Error("p90 of 99 samples has 9 beyond it; want an error")
	}
	got, err := quantile(seq(100), 0.9)
	if err != nil || got != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90 (nearest rank, 10 beyond)", got, err)
	}
	if got, err := quantile(seq(3), 0.5); err != nil || got != 2 {
		t.Errorf("p50 of 3 samples = %v, %v; want 2", got, err)
	}
	if _, err := quantile(nil, 0.5); err == nil {
		t.Error("quantile of no samples: want an error")
	}
	if got := median([]float64{4, 1, 3}); got != 3 {
		t.Errorf("median odd = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Op: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Op: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Op: 1, Name: "b", Start: 20, End: 50},  // overlaps a
		{ID: 4, Parent: 2, Op: 1, Name: "c", Start: 12, End: 18},  // nested in a
		{ID: 5, Parent: 1, Op: 1, Name: "d", Start: 90, End: 120}, // sticks out of root
		{ID: 6, Op: 2, Name: "other", Start: 5, End: 15},          // another operation
	}
	want := map[int64]int64{
		1: 100 - 40 - 10, // children cover [10,50) and [90,100)
		2: 20 - 6,        // c covers 6 of a
		3: 30,
		4: 6,
		5: 30,
		6: 10,
	}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self(%d) = %d, want %d", id, got[id], w)
		}
	}
	if got := meanSelfMS(spans, "root"); got != 50e-6 {
		t.Errorf("mean self of root = %v ms, want 5e-5", got)
	}
	if meanSelfMS(spans, "absent") != 0 {
		t.Error("mean self of an absent layer should be 0")
	}
}

func TestAccountedAddsUpNestedLayers(t *testing.T) {
	spans := []span{
		{ID: 1, Op: 1, Name: "loadgen.request", Start: 0, End: 50},
		{ID: 2, Parent: 1, Op: 1, Name: "api.handler", Start: 5, End: 45},
		{ID: 3, Op: 2, Name: "core.apply", Start: 60, End: 80},
	}
	if got := accounted(spans); got != 1 {
		t.Errorf("accounted = %v, want 1 for properly nested spans", got)
	}
	if got := meanDurMS(spans, "api.handler", "loadgen.request"); got != 40e-6 {
		t.Errorf("meanDurMS = %v, want 4e-5", got)
	}
}

func TestValidMetric(t *testing.T) {
	for _, c := range []struct {
		name, unit string
		ok         bool
	}{
		{"latency_p50_ms", "ms", true},
		{"kernel.eval_rate_geps", "Geval/s", true},
		{"9lives", "%", true},
		{"", "ms", false},
		{".hidden", "ms", false},
		{"has space", "ms", false},
		{"slash/name", "ms", false},
		{"ok", "", false},
		{"ok", "a unit", false},
		{"x23456789012345678901234567890123456789012345678901234567890123456", "s", false},
	} {
		if err := validMetric(c.name, c.unit); (err == nil) != c.ok {
			t.Errorf("validMetric(%q, %q) = %v, want ok=%v", c.name, c.unit, err, c.ok)
		}
	}
	for _, d := range catalog {
		if err := validMetric(d.name, d.unit); err != nil {
			t.Error(err)
		}
	}
}

// TestCatalogMatchesBenchmarkJSON keeps the metrics the program reports in
// step with the ones BENCHMARK.json declares.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	declared := make(map[string]metricDef)
	for _, m := range bj.EndToEnd {
		declared[m.Name] = metricDef{m.Name, m.Unit, false}
	}
	for _, m := range bj.PerLayer {
		declared[m.Name] = metricDef{m.Name, m.Unit, true}
	}
	if len(declared) != len(catalog) {
		t.Errorf("BENCHMARK.json declares %d metrics, the catalog has %d", len(declared), len(catalog))
	}
	for _, d := range catalog {
		if declared[d.name] != d {
			t.Errorf("catalog %+v, BENCHMARK.json %+v", d, declared[d.name])
		}
	}
	for _, w := range bj.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
}

// TestEvalsPerApply counts a three-leaf tree by hand: leaves of 2, 3 and 4
// points with ranks 1, 2 and 2; leaves 1 and 2 are near each other, 1 and 3
// interact through their skeletons.
func TestEvalsPerApply(t *testing.T) {
	nodes := []tree.Node{
		{ID: 0, Parent: -1, Children: []int{1, 2, 3}, Start: 0, End: 9},
		{ID: 1, Start: 0, End: 2, IsLeaf: true, Near: []int{1, 2}, Interaction: []int{3}},
		{ID: 2, Start: 2, End: 5, IsLeaf: true, Near: []int{2, 1}},
		{ID: 3, Start: 5, End: 9, IsLeaf: true, Near: []int{3}, Interaction: []int{1}},
	}
	ranks := []int{0, 1, 2, 2}
	// coupling: 1×2 + 2×1; near: 2×2 + 2×3 + 3×3 + 3×2 + 4×4
	const want = 4 + (4 + 6 + 9 + 6 + 16)
	if got := evalsPerApply(nodes, func(id int) int { return ranks[id] }); got != want {
		t.Errorf("evalsPerApply = %d, want %d", got, want)
	}
}
