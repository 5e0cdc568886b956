//go:build !amd64 || noasm

package mat

// Non-amd64 (or noasm-tagged) fallbacks: the dispatch layer never selects
// these because hasAVX reports false, but they keep the package compiling
// with identical semantics everywhere.

func hasAVX() bool { return false }

func hasFMA() bool { return false }

func dotBody(row, x []float64) float64 {
	x = x[:len(row)]
	var s0, s1, s2, s3 float64
	for j := 0; j+4 <= len(row); j += 4 {
		s0 += row[j] * x[j]
		s1 += row[j+1] * x[j+1]
		s2 += row[j+2] * x[j+2]
		s3 += row[j+3] * x[j+3]
	}
	return (s0 + s1) + (s2 + s3)
}

func dot2Body(r0, r1, x []float64) (float64, float64) {
	x = x[:len(r0)]
	r1 = r1[:len(r0)]
	var a0, a1, a2, a3 float64
	var b0, b1, b2, b3 float64
	for j := 0; j+4 <= len(r0); j += 4 {
		x0, x1, x2, x3 := x[j], x[j+1], x[j+2], x[j+3]
		a0 += r0[j] * x0
		a1 += r0[j+1] * x1
		a2 += r0[j+2] * x2
		a3 += r0[j+3] * x3
		b0 += r1[j] * x0
		b1 += r1[j+1] * x1
		b2 += r1[j+2] * x2
		b3 += r1[j+3] * x3
	}
	return (a0 + a1) + (a2 + a3), (b0 + b1) + (b2 + b3)
}

func dotAcc4Body(k, v []float64, acc *[4]float64) {
	k = k[:len(v)]
	for t := 0; t+4 <= len(v); t += 4 {
		acc[0] += k[t] * v[t]
		acc[1] += k[t+1] * v[t+1]
		acc[2] += k[t+2] * v[t+2]
		acc[3] += k[t+3] * v[t+3]
	}
}

func axpyBody(y, x []float64, a float64) {
	y = y[:len(x)]
	for i, xv := range x {
		y[i] += a * xv
	}
}

func axpy2Body(y, x0, x1 []float64, a0, a1 float64) {
	y = y[:len(x0)]
	x1 = x1[:len(x0)]
	for i := range x0 {
		y[i] = (y[i] + a0*x0[i]) + a1*x1[i]
	}
}

func axpy4Body(y, x0, x1, x2, x3 []float64, a0, a1, a2, a3 float64) {
	y = y[:len(x0)]
	x1 = x1[:len(x0)]
	x2 = x2[:len(x0)]
	x3 = x3[:len(x0)]
	for i := range x0 {
		y[i] = (((y[i] + a0*x0[i]) + a1*x1[i]) + a2*x2[i]) + a3*x3[i]
	}
}

func recipSqrtBody(dst, r2 []float64) { recipSqrtGo(dst, r2) }

func recipCubeBody(dst, r2 []float64) { recipCubeGo(dst, r2) }

func dist3Body(dst, p, xi []float64) { dist3Go(dst, xi, p) }

func recipSqrtDist3Body(dst, p, xi []float64) {
	dist3Go(dst, xi, p)
	recipSqrtGo(dst, dst)
}

func recipCubeDist3Body(dst, p, xi []float64) {
	dist3Go(dst, xi, p)
	recipCubeGo(dst, dst)
}

func negSqrtDist3Body(dst, p, xi []float64) {
	dist3Go(dst, xi, p)
	negSqrtGo(dst, dst)
}

// The exp bodies write nothing, which ExpChunk reads as "evaluate this quad
// with math.Exp".

func expFMABody(dst, x []float64) int { return 0 }

func expPlainBody(dst, x []float64) int { return 0 }
