package kernel

import (
	"math"

	"h2ds/internal/mat"
	"h2ds/internal/pointset"
)

// The per-entry ("seed") evaluation paths: dimension-specialized EvalDist
// loops that look every column point up through its index, with no panels,
// chunking or devirtualization. They are the bitwise oracle the fused panel
// paths are pinned against.

// AssembleSeed is Assemble forced onto the per-entry evaluation paths
// (dimension-specialized EvalDist loops for radial kernels, EvalPair
// otherwise).
func AssembleSeed(dst *mat.Dense, pk Pairwise, x *pointset.Points, rows []int, y *pointset.Points, cols []int) *mat.Dense {
	m, n := len(rows), len(cols)
	dst.Reshape(m, n)
	if ba, ok := pk.(BlockAssembler); ok && ba.AssembleBlock(dst, x, rows, y, cols) {
		return dst
	}
	k, radial := pk.(Kernel)
	if !radial {
		assemblePair(dst, pk, x, rows, y, cols)
		return dst
	}
	switch x.Dim {
	case 2:
		assemble2(dst, k, x, rows, y, cols)
	case 3:
		assemble3(dst, k, x, rows, y, cols)
	default:
		assembleGeneric(dst, k, x, rows, y, cols)
	}
	return dst
}

// NewBlockSeed is NewBlock on the per-entry AssembleSeed path.
func NewBlockSeed(k Pairwise, x *pointset.Points, rows []int, y *pointset.Points, cols []int) *mat.Dense {
	return AssembleSeed(mat.NewDense(0, 0), k, x, rows, y, cols)
}

// seedDist2 is the squared distance between x's point i and y's point j in
// the per-entry loops' accumulation order.
func seedDist2(x *pointset.Points, i int, y *pointset.Points, j int) float64 {
	d := x.Dim
	xi, yj := x.Coords[i*d:i*d+d], y.Coords[j*d:j*d+d]
	switch d {
	case 2:
		d0 := xi[0] - yj[0]
		d1 := xi[1] - yj[1]
		return d0*d0 + d1*d1
	case 3:
		d0 := xi[0] - yj[0]
		d1 := xi[1] - yj[1]
		d2 := xi[2] - yj[2]
		return d0*d0 + d1*d1 + d2*d2
	}
	s := 0.0
	for c, v := range xi {
		dd := v - yj[c]
		s += dd * dd
	}
	return s
}

func assemble3(dst *mat.Dense, k Kernel, x *pointset.Points, rows []int, y *pointset.Points, cols []int) {
	for a, i := range rows {
		xi := x.Coords[i*3 : i*3+3]
		x0, x1, x2 := xi[0], xi[1], xi[2]
		out := dst.Row(a)
		for b, j := range cols {
			yj := y.Coords[j*3 : j*3+3]
			d0 := x0 - yj[0]
			d1 := x1 - yj[1]
			d2 := x2 - yj[2]
			out[b] = k.EvalDist(math.Sqrt(d0*d0 + d1*d1 + d2*d2))
		}
	}
}

func assemble2(dst *mat.Dense, k Kernel, x *pointset.Points, rows []int, y *pointset.Points, cols []int) {
	for a, i := range rows {
		xi := x.Coords[i*2 : i*2+2]
		x0, x1 := xi[0], xi[1]
		out := dst.Row(a)
		for b, j := range cols {
			yj := y.Coords[j*2 : j*2+2]
			d0 := x0 - yj[0]
			d1 := x1 - yj[1]
			out[b] = k.EvalDist(math.Sqrt(d0*d0 + d1*d1))
		}
	}
}

func assembleGeneric(dst *mat.Dense, k Kernel, x *pointset.Points, rows []int, y *pointset.Points, cols []int) {
	d := x.Dim
	for a, i := range rows {
		xi := x.Coords[i*d : i*d+d]
		out := dst.Row(a)
		for b, j := range cols {
			yj := y.Coords[j*d : j*d+d]
			s := 0.0
			for c, v := range xi {
				dd := v - yj[c]
				s += dd * dd
			}
			out[b] = k.EvalDist(math.Sqrt(s))
		}
	}
}

// ApplyBlock computes y[rows] += K(X[rows], X[cols]) * v[cols] directly from
// per-entry seed values, gathering v through the column index set, in
// mat.MulVecAdd's row-dot grouping (four lane accumulators, reduced
// (s0+s1)+(s2+s3), then the sequential tail). y and v are full-length
// vectors indexed by the global point ordering.
func ApplyBlock(k Pairwise, x *pointset.Points, rows, cols []int, v, y []float64) {
	L := len(cols)
	U := L &^ 3
	for _, i := range rows {
		row := NewBlockSeed(k, x, []int{i}, x, cols).Data
		var s0, s1, s2, s3 float64
		for b := 0; b < U; b += 4 {
			s0 += row[b] * v[cols[b]]
			s1 += row[b+1] * v[cols[b+1]]
			s2 += row[b+2] * v[cols[b+2]]
			s3 += row[b+3] * v[cols[b+3]]
		}
		s := (s0 + s1) + (s2 + s3)
		for b := U; b < L; b++ {
			s += row[b] * v[cols[b]]
		}
		y[i] += s
	}
}
