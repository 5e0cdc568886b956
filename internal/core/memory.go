package core

import (
	"fmt"

	"h2ds/internal/par"
)

// MemoryStats is the deterministic byte accounting of an H² matrix, broken
// down by generator class as in the paper's Table I and memory figures.
// All counts are exact payload sizes (8 bytes per float64 / index) plus
// small fixed per-object overheads; they deliberately exclude Go runtime
// allocator slack so that runs are reproducible.
type MemoryStats struct {
	Basis     int64 // leaf U matrices
	Transfer  int64 // stacked R matrices
	Coupling  int64 // stored B_{i,j} blocks (zero in on-the-fly mode)
	Nearfield int64 // stored dense leaf blocks (zero in on-the-fly mode)
	Skeletons int64 // skeleton index sets + sampling surrogates
	Grids     int64 // interpolation grid point storage
	Tree      int64 // tree metadata + permuted coordinates

	// Workspace is the payload of one pooled matvec workspace (two N-length
	// permutation buffers plus the per-node q/g rank slabs; see
	// core.Workspace). The pool holds one workspace per in-flight apply, so
	// concurrent callers multiply this figure by their concurrency.
	Workspace int64

	// ScratchPerWorker bounds the per-worker tile buffer used by the
	// on-the-fly mode: the largest coupling or nearfield block. Concurrent
	// usage is Workers x ScratchPerWorker (paper Fig 7c).
	ScratchPerWorker int64
	Workers          int
}

// Total returns the resident bytes: stored generators plus one pooled
// workspace plus, in on-the-fly mode, the concurrent scratch tiles.
func (s MemoryStats) Total() int64 {
	t := s.Basis + s.Transfer + s.Coupling + s.Nearfield + s.Skeletons + s.Grids + s.Tree + s.Workspace
	t += int64(s.Workers) * s.ScratchPerWorker
	return t
}

// KiB returns the total in KiB, the unit of the paper's Table I.
func (s MemoryStats) KiB() float64 { return float64(s.Total()) / 1024 }

// String renders a short human-readable breakdown.
func (s MemoryStats) String() string {
	return fmt.Sprintf("total %.2f KiB (basis %.2f, transfer %.2f, coupling %.2f, nearfield %.2f, skeletons %.2f, grids %.2f, tree %.2f, workspace %.2f, scratch %dx%.2f)",
		s.KiB(), kib(s.Basis), kib(s.Transfer), kib(s.Coupling), kib(s.Nearfield),
		kib(s.Skeletons), kib(s.Grids), kib(s.Tree), kib(s.Workspace), s.Workers, kib(s.ScratchPerWorker))
}

func kib(b int64) float64 { return float64(b) / 1024 }

// Memory computes the matrix's memory statistics.
func (m *Matrix) Memory() MemoryStats {
	var s MemoryStats
	s.Workers = par.Resolve(m.Cfg.Workers)
	for id := range m.Tree.Nodes {
		if u := m.u[id]; u != nil {
			s.Basis += int64(len(u.Data))*8 + 24
		}
		if t := m.trans[id]; t != nil {
			s.Transfer += int64(len(t.Data))*8 + 24
		}
		s.Skeletons += int64(len(m.skel[id])) * 8
		if !m.sharedBasis {
			if v := m.v[id]; v != nil {
				s.Basis += int64(len(v.Data))*8 + 24
			}
			if w := m.wTrans[id]; w != nil {
				s.Transfer += int64(len(w.Data))*8 + 24
			}
			s.Skeletons += int64(len(m.colSkel[id])) * 8
		}
		if m.Cfg.Kind == Interpolation && m.skelPts[id] != nil {
			s.Grids += m.skelPts[id].Bytes()
		}
	}
	if m.hier != nil {
		s.Skeletons += m.hier.Bytes()
	}
	s.Tree = m.Tree.Bytes()
	s.Workspace = m.workspaceBytes()
	s.Coupling = m.coup.Bytes()
	s.Nearfield = m.near.Bytes()
	if m.Cfg.Mode != Normal {
		// On-the-fly and hybrid matrices also pay the scratch bound for
		// the blocks they evaluate instead of storing.
		s.ScratchPerWorker = m.maxTileBytes()
	}
	return s
}

// maxTileBytes returns the size of the largest block the on-the-fly sweeps
// will assemble, computed from ranks and leaf sizes without assembling
// anything. A coupling block's skeleton columns are scattered, so the fused
// kernels gather their coordinate panel (d rows) into the tile, next to the
// one kernel row of the batch paths and the twin; a nearfield block's
// leaf-range panel is read in place, so it needs the kernel row only.
// Either only exceeds the block itself for ranks that small.
func (m *Matrix) maxTileBytes() int64 {
	var maxElems int64
	panelRows := int64(m.Tree.Points.Dim) + 1
	for i := range m.Tree.Nodes {
		ri := max(int64(m.ranks[i]), panelRows)
		for _, j := range m.Tree.Nodes[i].Interaction {
			if e := ri * int64(m.colRank(j)); e > maxElems {
				maxElems = e
			}
		}
	}
	for _, i := range m.Tree.Leaves {
		si := int64(m.Tree.Nodes[i].Size())
		for _, j := range m.Tree.Nodes[i].Near {
			if e := max(si, 1) * int64(m.Tree.Nodes[j].Size()); e > maxElems {
				maxElems = e
			}
		}
	}
	return maxElems * 8
}
