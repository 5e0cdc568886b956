package core

import (
	"fmt"
)

// Apply computes y = Â b for a vector b in the caller's original point
// ordering and returns y in the same ordering.
func (m *Matrix) Apply(b []float64) []float64 {
	y := make([]float64, m.N)
	m.ApplyTo(y, b)
	return y
}

// ApplyTo computes y = Â b into y (original point ordering). y and b must
// both have length N; they may alias (the product round-trips through
// internal permutation buffers, so ApplyTo(v, v) is well defined). The
// workspace comes from an internal pool, so repeated calls are
// allocation-free in steady state; callers that want explicit control over
// buffer ownership use NewWorkspace + ApplyToWith.
func (m *Matrix) ApplyTo(y, b []float64) {
	ws := m.getWorkspace()
	m.ApplyToWith(ws, y, b)
	m.putWorkspace(ws)
}

// ApplyPermuted runs Algorithm 2 on vectors in the tree's permuted point
// ordering. yp and bp must not alias (the leaf sweep reads bp's nearfield
// neighbours while writing yp). This is the core five-sweep product:
//
//  1. leaf horizontal sweep    q_i = U_iᵀ b_i
//  2. bottom-to-top sweep      q_i = Σ_c R_cᵀ q_c
//  3. horizontal coupling      g_i = Σ_{j ∈ IL(i)} B_{i,j} q_j
//  4. top-to-bottom sweep      g_c += R_c g_i
//  5. leaf horizontal sweep    y_i = U_i g_i + Σ_{j ∈ near(i)} K(X_i,X_j) b_j
//
// The sweeps run as one drain of a per-node task graph (schedule.go), so
// nodes run as soon as their inputs are final; each output slot is written
// by exactly one task in a fixed order, so the result is independent of the
// worker count.
func (m *Matrix) ApplyPermuted(yp, bp []float64) {
	if len(yp) != m.N || len(bp) != m.N {
		panic(fmt.Sprintf("core: applyPermuted length mismatch y=%d b=%d n=%d", len(yp), len(bp), m.N))
	}
	ws := m.getWorkspace()
	m.applyPermutedWith(ws, yp, bp, applyVec)
	m.putWorkspace(ws)
}
