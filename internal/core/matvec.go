package core

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
