package main

import (
	"h2ds/internal/core"
	"h2ds/internal/tree"
)

// evalsPerApply counts the kernel evaluations one on-the-fly sweep makes:
// a rank(i)×rank(j) coupling block for every node i and every j on its
// interaction list, and a |i|×|j| nearfield block for every leaf i and every
// j on its near list. Both lists hold each pair in both directions, and the
// sweep evaluates each direction (the kernels used here are symmetric, so
// row and column ranks agree).
func evalsPerApply(nodes []tree.Node, rank func(id int) int) int64 {
	var evals int64
	for i := range nodes {
		nd := &nodes[i]
		for _, j := range nd.Interaction {
			evals += int64(rank(i)) * int64(rank(j))
		}
		for _, j := range nd.Near {
			evals += int64(nd.Size()) * int64(nodes[j].Size())
		}
	}
	return evals
}

// buildLayers is the per-layer construction breakdown: the median of each
// BuildPhases field over the timed set-up builds, in ms. Tree, sample and
// store (coupling/nearfield storage) are wall time; assembly, ID and
// transfer are summed over construction workers.
func buildLayers(phases []core.BuildPhases, out map[string]float64) {
	field := func(f func(core.BuildPhases) int64) float64 {
		xs := make([]float64, len(phases))
		for i, p := range phases {
			xs[i] = float64(f(p)) / 1e6
		}
		return median(xs)
	}
	out["tree.build_ms"] = field(func(p core.BuildPhases) int64 { return p.TreeNS })
	out["sample.ms"] = field(func(p core.BuildPhases) int64 { return p.SampleNS })
	out["mat.id_ms"] = field(func(p core.BuildPhases) int64 { return p.IDNS })
	out["mat.transfer_ms"] = field(func(p core.BuildPhases) int64 { return p.TransferNS })
	out["kernel.assembly_ms"] = field(func(p core.BuildPhases) int64 { return p.AssemblyNS })
	out["core.store_ms"] = field(func(p core.BuildPhases) int64 { return p.CouplingNS })
}

// applyLayers attributes the sweeps made between two SweepStats snapshots:
// per-stage and on-the-fly evaluation time per sweep (summed over workers),
// the stored bytes one sweep reads, the bandwidth and worker busy share
// that implies given the sweep's wall time applyMS, and the kernel
// evaluation count and rate of the on-the-fly blocks.
func applyLayers(m *core.Matrix, before, after core.SweepStats, applyMS float64, out map[string]float64) {
	n := float64(after.Applies - before.Applies)
	if n <= 0 {
		return
	}
	per := func(a, b int64) float64 { return float64(b-a) / n / 1e6 }
	up := per(before.UpNS, after.UpNS)
	coup := per(before.CouplingNS, after.CouplingNS)
	down := per(before.DownNS, after.DownNS)
	leaf := per(before.LeafNS, after.LeafNS)
	out["core.apply_ms"] = applyMS
	out["core.up_ms"] = up
	out["core.coupling_ms"] = coup
	out["core.down_ms"] = down
	out["core.leaf_ms"] = leaf
	mem := m.Memory()
	out["par.busy_ratio"] = (up + coup + down + leaf) / (float64(mem.Workers) * applyMS)
	bytes := float64(mem.Coupling + mem.Nearfield + mem.Basis + mem.Transfer)
	out["core.bytes_per_apply_mib"] = bytes / (1 << 20)
	out["core.apply_gbps"] = bytes / (applyMS * 1e6)

	otf := per(before.OtfAssemblyNS, after.OtfAssemblyNS)
	out["kernel.otf_eval_ms"] = otf
	out["kernel.evals_per_apply"] = 0
	out["kernel.eval_rate_geps"] = 0
	if m.Cfg.Mode == core.OnTheFly {
		evals := float64(evalsPerApply(m.Tree.Nodes, m.Rank))
		out["kernel.evals_per_apply"] = evals
		out["kernel.eval_rate_geps"] = evals / (otf * 1e6)
	}
}
