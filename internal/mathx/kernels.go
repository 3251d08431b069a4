package mathx

// Gram returns mᵀ·m, the Cols×Cols Gram matrix (the unscaled covariance
// of standardized data). It transposes once so every dot product runs
// over contiguous rows, computes only the upper triangle and mirrors it —
// out(i,j) and out(j,i) are the same float64.
func (m *Matrix) Gram() *Matrix {
	t := m.T()
	n := t.Rows
	out := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		ti := t.Row(i)
		oi := out.Row(i)
		for j := i; j < n; j++ {
			oi[j] = Dot(ti, t.Row(j))
		}
	}
	for i := 1; i < n; i++ {
		for j := 0; j < i; j++ {
			out.Set(i, j, out.At(j, i))
		}
	}
	return out
}

// GemvBias computes y[o] = bias[o] + w[o·in:(o+1)·in]·x for o in [0,out) —
// the dense-layer pre-activation, with w an out×in row-major weight
// matrix. Each output element accumulates left to right starting from
// bias[o].
func GemvBias(w []float64, in, out int, x, bias, y []float64) {
	for o := 0; o < out; o++ {
		s := bias[o]
		row := w[o*in : (o+1)*in]
		for i, v := range x {
			s += row[i] * v
		}
		y[o] = s
	}
}

// OuterAccum adds the rank-1 update g⊗x into the out×in row-major
// gradient matrix gw: gw[o·in+i] += g[o]·x[i].
func OuterAccum(gw []float64, in, out int, g, x []float64) {
	for o := 0; o < out; o++ {
		gv := g[o]
		row := gw[o*in : (o+1)*in]
		for i, v := range x {
			row[i] += gv * v
		}
	}
}

// GemvTAccum adds wᵀ·g into din: din[i] += Σ_o g[o]·w[o·in+i], with the
// o loop outermost and ascending, so every din[i] accumulates in output
// order.
func GemvTAccum(w []float64, in, out int, g, din []float64) {
	for o := 0; o < out; o++ {
		gv := g[o]
		row := w[o*in : (o+1)*in]
		for i, v := range row {
			din[i] += gv * v
		}
	}
}
