package mathx

// Minibatch kernels for the neural-network layers: the same per-element
// arithmetic as the single-sample GEMV family in kernels.go, lifted over a
// batch of rows so one DDPG training step runs a handful of matrix kernels
// instead of hundreds of per-transition vector calls. Every kernel keeps
// the per-element accumulation order of its single-sample counterpart —
// ascending input index inside a dot product, ascending batch row for
// gradient accumulation — so a batched pass is bit-identical to the
// sample-at-a-time loop it replaces.
//
// Independent output elements share loads: a tile of outputs accumulates
// side by side in registers, and a gradient stream folds several terms
// into each element per pass, written as one left-to-right `+` chain so
// the additions land in exactly the single-term order. The kernels run on
// the calling goroutine: at the 64×64, batch-32 layers every caller
// builds, a fork never paid for its hand-off.

// GemmBias computes y[r][o] = bias[o] + w[o·in:(o+1)·in]·x[r·in:(r+1)·in]
// for every batch row r in [0,n) — the dense-layer pre-activation over a
// minibatch, with w an out×in row-major weight matrix, x n×in and y n×out.
// Each output element accumulates left to right starting from the bias,
// exactly like GemvBias on one row; tiles of 4 rows × 2 outputs share
// every weight and input load.
func GemmBias(w []float64, in, out int, x []float64, bias, y []float64, n int) {
	r := 0
	for ; r+4 <= n; r += 4 {
		x0 := x[r*in : (r+1)*in]
		x1 := x[(r+1)*in : (r+2)*in]
		x2 := x[(r+2)*in : (r+3)*in]
		x3 := x[(r+3)*in : (r+4)*in]
		y0 := y[r*out : (r+1)*out]
		y1 := y[(r+1)*out : (r+2)*out]
		y2 := y[(r+2)*out : (r+3)*out]
		y3 := y[(r+3)*out : (r+4)*out]
		o := 0
		for ; o+2 <= out; o += 2 {
			w0 := w[o*in : (o+1)*in]
			w1 := w[(o+1)*in : (o+2)*in]
			w1, x0, x1, x2, x3 := w1[:len(w0)], x0[:len(w0)], x1[:len(w0)], x2[:len(w0)], x3[:len(w0)]
			b0, b1 := bias[o], bias[o+1]
			s00, s10, s20, s30 := b0, b0, b0, b0
			s01, s11, s21, s31 := b1, b1, b1, b1
			for i, u := range w0 {
				v := w1[i]
				a0, a1, a2, a3 := x0[i], x1[i], x2[i], x3[i]
				s00 += u * a0
				s10 += u * a1
				s20 += u * a2
				s30 += u * a3
				s01 += v * a0
				s11 += v * a1
				s21 += v * a2
				s31 += v * a3
			}
			y0[o], y1[o], y2[o], y3[o] = s00, s10, s20, s30
			y0[o+1], y1[o+1], y2[o+1], y3[o+1] = s01, s11, s21, s31
		}
		if o < out {
			w0 := w[o*in : (o+1)*in]
			x0, x1, x2, x3 := x0[:len(w0)], x1[:len(w0)], x2[:len(w0)], x3[:len(w0)]
			b := bias[o]
			s0, s1, s2, s3 := b, b, b, b
			for i, u := range w0 {
				s0 += u * x0[i]
				s1 += u * x1[i]
				s2 += u * x2[i]
				s3 += u * x3[i]
			}
			y0[o], y1[o], y2[o], y3[o] = s0, s1, s2, s3
		}
	}
	for ; r < n; r++ {
		xr := x[r*in : (r+1)*in]
		yr := y[r*out : (r+1)*out]
		for o := range yr {
			s := bias[o]
			row := w[o*in : (o+1)*in]
			for i, v := range xr {
				s += row[i] * v
			}
			yr[o] = s
		}
	}
}

// GemmOuterAccum adds the batch of rank-1 updates g[r]⊗x[r] into the
// out×in row-major gradient matrix gw, accumulating batch rows in
// ascending order: gw[o·in+i] += Σ_r g[r·out+o]·x[r·in+i]. The adds land
// on gw one batch row at a time (never via a pre-reduced partial), so the
// result is bit-identical to calling OuterAccum per sample in batch
// order. Two gw rows stream together over contiguous i (an odd last row
// streams alone), each element taking four batch rows' terms per load and
// store.
func GemmOuterAccum(gw []float64, in, out int, g, x []float64, n int) {
	o := 0
	for ; o+2 <= out; o += 2 {
		gw0 := gw[o*in : (o+1)*in]
		gw1 := gw[(o+1)*in : (o+2)*in]
		gw1 = gw1[:len(gw0)]
		r := 0
		for ; r+4 <= n; r += 4 {
			x0 := x[r*in : (r+1)*in]
			x1 := x[(r+1)*in : (r+2)*in]
			x2 := x[(r+2)*in : (r+3)*in]
			x3 := x[(r+3)*in : (r+4)*in]
			x0, x1, x2, x3 = x0[:len(gw0)], x1[:len(gw0)], x2[:len(gw0)], x3[:len(gw0)]
			a0, a1, a2, a3 := g[r*out+o], g[(r+1)*out+o], g[(r+2)*out+o], g[(r+3)*out+o]
			b0, b1, b2, b3 := g[r*out+o+1], g[(r+1)*out+o+1], g[(r+2)*out+o+1], g[(r+3)*out+o+1]
			for i := range gw0 {
				v0, v1, v2, v3 := x0[i], x1[i], x2[i], x3[i]
				gw0[i] = gw0[i] + a0*v0 + a1*v1 + a2*v2 + a3*v3
				gw1[i] = gw1[i] + b0*v0 + b1*v1 + b2*v2 + b3*v3
			}
		}
		for ; r < n; r++ {
			xr := x[r*in : (r+1)*in]
			xr = xr[:len(gw0)]
			a, b := g[r*out+o], g[r*out+o+1]
			for i, v := range xr {
				gw0[i] += a * v
				gw1[i] += b * v
			}
		}
	}
	if o < out {
		grow := gw[o*in : (o+1)*in]
		r := 0
		for ; r+4 <= n; r += 4 {
			x0 := x[r*in : (r+1)*in]
			x1 := x[(r+1)*in : (r+2)*in]
			x2 := x[(r+2)*in : (r+3)*in]
			x3 := x[(r+3)*in : (r+4)*in]
			x0, x1, x2, x3 = x0[:len(grow)], x1[:len(grow)], x2[:len(grow)], x3[:len(grow)]
			a0, a1, a2, a3 := g[r*out+o], g[(r+1)*out+o], g[(r+2)*out+o], g[(r+3)*out+o]
			for i := range grow {
				grow[i] = grow[i] + a0*x0[i] + a1*x1[i] + a2*x2[i] + a3*x3[i]
			}
		}
		for ; r < n; r++ {
			gv := g[r*out+o]
			xr := x[r*in : (r+1)*in]
			for i, v := range xr {
				grow[i] += gv * v
			}
		}
	}
}

// BiasGradAccum adds the batch's output gradients into gb in ascending
// batch order: gb[o] += Σ_r g[r·out+o], matching the per-sample
// `gb[o] += g[o]` loop bit for bit.
func BiasGradAccum(gb []float64, out int, g []float64, n int) {
	for r := 0; r < n; r++ {
		gr := g[r*out : (r+1)*out]
		for o, v := range gr {
			gb[o] += v
		}
	}
}

// GemmTIn computes the batch of input gradients din[r·in+i] =
// Σ_o g[r·out+o]·w[o·in+i] for the input columns i in [lo,hi), overwriting
// those elements of din; the other columns are not written. Within each
// row the o terms land in ascending order, four per pass, so every din
// element accumulates in exactly the order GemvTAccum used on a zeroed
// buffer; the first pass starts from an explicit 0 so an all −0 sum still
// comes out +0. Columns are independent, so a narrowed range leaves the
// computed ones bit-identical to the full pass.
func GemmTIn(w []float64, in, out int, g, din []float64, n, lo, hi int) {
	for r := 0; r < n; r++ {
		dr := din[r*in+lo : r*in+hi]
		gr := g[r*out : (r+1)*out]
		o := 0
		for ; o+4 <= out; o += 4 {
			w0 := w[o*in+lo : o*in+hi]
			w1 := w[(o+1)*in+lo : (o+1)*in+hi]
			w2 := w[(o+2)*in+lo : (o+2)*in+hi]
			w3 := w[(o+3)*in+lo : (o+3)*in+hi]
			dr, w1, w2, w3 := dr[:len(w0)], w1[:len(w0)], w2[:len(w0)], w3[:len(w0)]
			c0, c1, c2, c3 := gr[o], gr[o+1], gr[o+2], gr[o+3]
			if o == 0 {
				for i, v := range w0 {
					dr[i] = 0 + c0*v + c1*w1[i] + c2*w2[i] + c3*w3[i]
				}
				continue
			}
			for i, v := range w0 {
				dr[i] = dr[i] + c0*v + c1*w1[i] + c2*w2[i] + c3*w3[i]
			}
		}
		for ; o < out; o++ {
			gv := gr[o]
			row := w[o*in+lo : o*in+hi][:len(dr)]
			if o == 0 {
				for i, v := range row {
					dr[i] = 0 + gv*v
				}
				continue
			}
			for i, v := range row {
				dr[i] += gv * v
			}
		}
	}
}
