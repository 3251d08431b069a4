// Package nn implements the small feed-forward neural networks the DDPG
// Recommender is built from: dense layers with ReLU/Tanh/Sigmoid
// activations, backpropagation with Adam, soft target updates, and
// parameter snapshots for the model-reuse schemes (§4).
package nn

import (
	"fmt"
	"math"

	"github.com/hunter-cdb/hunter/internal/mathx"
	"github.com/hunter-cdb/hunter/internal/sim"
)

// Activation selects a layer's non-linearity.
type Activation int

const (
	// Linear is the identity.
	Linear Activation = iota
	// ReLU is max(0, x).
	ReLU
	// Tanh squashes to (-1, 1).
	Tanh
	// Sigmoid squashes to (0, 1) — the actor's output layer, since
	// actions are normalized knob settings in [0,1].
	Sigmoid
)

func (a Activation) apply(x float64) float64 {
	switch a {
	case ReLU:
		if x < 0 {
			return 0
		}
		return x
	case Tanh:
		return math.Tanh(x)
	case Sigmoid:
		return 1 / (1 + math.Exp(-x))
	}
	return x
}

// derivative given the activated output y.
func (a Activation) deriv(y float64) float64 {
	switch a {
	case ReLU:
		if y > 0 {
			return 1
		}
		return 0
	case Tanh:
		return 1 - y*y
	case Sigmoid:
		return y * (1 - y)
	}
	return 1
}

// applyAll applies the activation to every element of y in place: one
// switch per layer instead of one apply call per element, with the same
// arithmetic per element. ReLU keeps v unless v < 0, so −0 and NaN pass
// through exactly as apply passes them.
func (a Activation) applyAll(y []float64) {
	switch a {
	case ReLU:
		for i, v := range y {
			if v < 0 {
				y[i] = 0
			}
		}
	case Tanh:
		for i, v := range y {
			y[i] = math.Tanh(v)
		}
	case Sigmoid:
		for i, v := range y {
			y[i] = 1 / (1 + math.Exp(-v))
		}
	}
}

// scaleByDeriv multiplies each gradient g[i] by the derivative at the
// activated output y[i], one switch per layer, with the same arithmetic
// per element as deriv. ReLU multiplies by exactly 1 or 0, so the sign of
// a zeroed gradient is kept; Linear's factor 1 leaves g as it is.
func (a Activation) scaleByDeriv(g, y []float64) {
	y = y[:len(g)]
	switch a {
	case ReLU:
		for i, v := range y {
			d := 0.0
			if v > 0 {
				d = 1
			}
			g[i] *= d
		}
	case Tanh:
		for i, v := range y {
			g[i] *= 1 - v*v
		}
	case Sigmoid:
		for i, v := range y {
			g[i] *= v * (1 - v)
		}
	}
}

type layer struct {
	in, out int
	act     Activation
	w       []float64 // out×in row-major
	b       []float64
	// Adam moments.
	mw, vw []float64
	mb, vb []float64
	// Gradient accumulators.
	gw []float64
	gb []float64
	// Forward cache.
	x []float64 // input
	y []float64 // activated output
}

// MLP is a multilayer perceptron.
type MLP struct {
	layers []*layer
	adamT  int
}

// NewMLP builds an MLP with the given layer sizes (len ≥ 2) and one
// activation per weight layer (len(sizes)-1 entries). Weights use
// He/Xavier-style initialization scaled by fan-in.
func NewMLP(sizes []int, acts []Activation, rng *sim.RNG) (*MLP, error) {
	if len(sizes) < 2 {
		return nil, fmt.Errorf("nn: need at least input and output sizes")
	}
	if len(acts) != len(sizes)-1 {
		return nil, fmt.Errorf("nn: %d activations for %d layers", len(acts), len(sizes)-1)
	}
	m := &MLP{}
	for l := 0; l < len(sizes)-1; l++ {
		in, out := sizes[l], sizes[l+1]
		if in <= 0 || out <= 0 {
			return nil, fmt.Errorf("nn: non-positive layer size")
		}
		ly := &layer{
			in: in, out: out, act: acts[l],
			w:  make([]float64, in*out),
			b:  make([]float64, out),
			mw: make([]float64, in*out),
			vw: make([]float64, in*out),
			mb: make([]float64, out),
			vb: make([]float64, out),
			gw: make([]float64, in*out),
			gb: make([]float64, out),
			y:  make([]float64, out),
		}
		scale := math.Sqrt(2 / float64(in))
		for i := range ly.w {
			ly.w[i] = rng.Gaussian(0, scale)
		}
		m.layers = append(m.layers, ly)
	}
	return m, nil
}

// InDim returns the input dimensionality.
func (m *MLP) InDim() int { return m.layers[0].in }

// OutDim returns the output dimensionality.
func (m *MLP) OutDim() int { return m.layers[len(m.layers)-1].out }

// Forward runs inference and caches activations for a following Backward.
func (m *MLP) Forward(x []float64) []float64 {
	if len(x) != m.InDim() {
		panic(fmt.Sprintf("nn: input dim %d != %d", len(x), m.InDim()))
	}
	cur := x
	for _, ly := range m.layers {
		ly.x = cur
		// Pre-activation via the shared GEMV kernel, then the
		// non-linearity.
		mathx.GemvBias(ly.w, ly.in, ly.out, cur, ly.b, ly.y)
		for o, s := range ly.y {
			ly.y[o] = ly.act.apply(s)
		}
		cur = ly.y
	}
	out := make([]float64, len(cur))
	copy(out, cur)
	return out
}

// Backward accumulates parameter gradients for the most recent Forward
// given dLoss/dOutput, and returns dLoss/dInput (used to chain the critic's
// action gradient into the actor).
func (m *MLP) Backward(dOut []float64) []float64 {
	if len(dOut) != m.OutDim() {
		panic(fmt.Sprintf("nn: grad dim %d != %d", len(dOut), m.OutDim()))
	}
	grad := append([]float64(nil), dOut...)
	for l := len(m.layers) - 1; l >= 0; l-- {
		ly := m.layers[l]
		// Through activation.
		for o := 0; o < ly.out; o++ {
			grad[o] *= ly.act.deriv(ly.y[o])
		}
		// Parameter grads (rank-1 outer product) and input grad (Wᵀ·g)
		// through the shared mathx kernels; both preserve the serial
		// accumulation order element by element.
		din := make([]float64, ly.in)
		for o, g := range grad {
			ly.gb[o] += g
		}
		mathx.OuterAccum(ly.gw, ly.in, ly.out, grad, ly.x)
		mathx.GemvTAccum(ly.w, ly.in, ly.out, grad, din)
		grad = din
	}
	return grad
}

// ZeroGrad clears accumulated gradients.
func (m *MLP) ZeroGrad() {
	for _, ly := range m.layers {
		for i := range ly.gw {
			ly.gw[i] = 0
		}
		for i := range ly.gb {
			ly.gb[i] = 0
		}
	}
}

// Step applies one Adam update with the accumulated gradients scaled by
// 1/batch, then clears them. Gradients are clipped to maxNorm (0 disables).
func (m *MLP) Step(lr float64, batch int, maxNorm float64) {
	if batch < 1 {
		batch = 1
	}
	inv := 1 / float64(batch)
	// Global norm clipping.
	if maxNorm > 0 {
		var sq float64
		for _, ly := range m.layers {
			for _, g := range ly.gw {
				sq += g * g * inv * inv
			}
			for _, g := range ly.gb {
				sq += g * g * inv * inv
			}
		}
		if norm := math.Sqrt(sq); norm > maxNorm {
			inv *= maxNorm / norm
		}
	}
	m.adamT++
	b1c := 1 - math.Pow(0.9, float64(m.adamT))
	b2c := 1 - math.Pow(0.999, float64(m.adamT))
	for _, ly := range m.layers {
		adam(ly.w, ly.gw, ly.mw, ly.vw, lr, inv, b1c, b2c)
		adam(ly.b, ly.gb, ly.mb, ly.vb, lr, inv, b1c, b2c)
		for i := range ly.gw {
			ly.gw[i] = 0
		}
		for i := range ly.gb {
			ly.gb[i] = 0
		}
	}
}

// adam applies one element-wise Adam update to the parameters w.
func adam(w, g, mm, vv []float64, lr, inv, b1c, b2c float64) {
	for i := range w {
		gi := g[i] * inv
		mm[i] = 0.9*mm[i] + 0.1*gi
		vv[i] = 0.999*vv[i] + 0.001*gi*gi
		mhat := mm[i] / b1c
		vhat := vv[i] / b2c
		w[i] -= lr * mhat / (math.Sqrt(vhat) + 1e-8)
	}
}

// Weights exports all parameters as a flat slice (for snapshots and the
// model-reuse schemes).
func (m *MLP) Weights() []float64 {
	var out []float64
	for _, ly := range m.layers {
		out = append(out, ly.w...)
		out = append(out, ly.b...)
	}
	return out
}

// NumWeights returns the length of the slice Weights exports.
func (m *MLP) NumWeights() int {
	n := 0
	for _, ly := range m.layers {
		n += len(ly.w) + len(ly.b)
	}
	return n
}

// SetWeights restores parameters exported by Weights.
func (m *MLP) SetWeights(w []float64) error {
	if need := m.NumWeights(); len(w) != need {
		return fmt.Errorf("nn: weight count %d != %d", len(w), need)
	}
	off := 0
	for _, ly := range m.layers {
		copy(ly.w, w[off:off+len(ly.w)])
		off += len(ly.w)
		copy(ly.b, w[off:off+len(ly.b)])
		off += len(ly.b)
	}
	return nil
}

// Clone returns a deep copy sharing no state.
func (m *MLP) Clone() *MLP {
	c := &MLP{adamT: m.adamT}
	for _, ly := range m.layers {
		nl := &layer{in: ly.in, out: ly.out, act: ly.act,
			w:  append([]float64(nil), ly.w...),
			b:  append([]float64(nil), ly.b...),
			mw: append([]float64(nil), ly.mw...),
			vw: append([]float64(nil), ly.vw...),
			mb: append([]float64(nil), ly.mb...),
			vb: append([]float64(nil), ly.vb...),
			gw: make([]float64, len(ly.gw)),
			gb: make([]float64, len(ly.gb)),
			y:  make([]float64, ly.out),
		}
		c.layers = append(c.layers, nl)
	}
	return c
}

// SoftUpdate moves the target network toward m: target ← τ·m + (1−τ)·target.
func (m *MLP) SoftUpdate(target *MLP, tau float64) {
	for l, ly := range m.layers {
		tl := target.layers[l]
		for i := range ly.w {
			tl.w[i] = tau*ly.w[i] + (1-tau)*tl.w[i]
		}
		for i := range ly.b {
			tl.b[i] = tau*ly.b[i] + (1-tau)*tl.b[i]
		}
	}
}

// BatchWorkspace holds the minibatch activations and gradient buffers for
// ForwardBatch/BackwardBatch/InputGradBatch. A zero value is ready to use;
// buffers grow on first use and are reused afterwards, so a warm
// forward/backward cycle allocates nothing. Not safe for concurrent use —
// each (network, goroutine) pair needs its own workspace.
type BatchWorkspace struct {
	n  int
	x  []float64   // the forward input batch (caller-owned, referenced)
	ys [][]float64 // per layer: n×out activated outputs
	g  []float64   // gradient ping-pong buffer, n×maxWidth
	d  []float64   // gradient ping-pong buffer, n×maxWidth
}

// ensure sizes the workspace for a batch of n rows through m's layers.
func (ws *BatchWorkspace) ensure(m *MLP, n int) {
	if len(ws.ys) != len(m.layers) {
		ws.ys = make([][]float64, len(m.layers))
	}
	maxW := m.InDim()
	for l, ly := range m.layers {
		if cap(ws.ys[l]) < n*ly.out {
			ws.ys[l] = make([]float64, n*ly.out)
		}
		ws.ys[l] = ws.ys[l][:n*ly.out]
		if ly.out > maxW {
			maxW = ly.out
		}
	}
	if cap(ws.g) < n*maxW {
		ws.g = make([]float64, n*maxW)
		ws.d = make([]float64, n*maxW)
	}
	ws.n = n
}

// ForwardBatch runs inference over a minibatch of n rows stored flat in x
// (n×InDim, row-major), caching per-row activations in ws for a following
// BackwardBatch or InputGradBatch. The returned n×OutDim slice aliases the
// workspace and stays valid until the next ForwardBatch on ws. Each row's
// arithmetic — the dense GEMV accumulation and the activation — is
// bit-identical to calling Forward on that row alone. x must stay
// unmodified until the matching backward pass has run.
func (m *MLP) ForwardBatch(ws *BatchWorkspace, x []float64, n int) []float64 {
	if len(x) != n*m.InDim() {
		panic(fmt.Sprintf("nn: batch input len %d != %d×%d", len(x), n, m.InDim()))
	}
	ws.ensure(m, n)
	ws.x = x
	cur := x
	for l, ly := range m.layers {
		y := ws.ys[l]
		mathx.GemmBias(ly.w, ly.in, ly.out, cur, ly.b, y, n)
		ly.act.applyAll(y)
		cur = y
	}
	return cur
}

// BackwardBatch accumulates parameter gradients for the most recent
// ForwardBatch on ws given the flat n×OutDim loss gradient dOut. The
// per-element accumulation into gw/gb runs in ascending batch-row order —
// the exact order a sample-at-a-time Forward/Backward loop over the batch
// produces — so the accumulated gradients (and every weight update built
// from them) are bit-identical to the serial per-sample pass, for any
// worker count. The input gradient is not materialized for the first
// layer (the per-sample pass computed and discarded it).
func (m *MLP) BackwardBatch(ws *BatchWorkspace, dOut []float64) {
	n := ws.n
	if len(dOut) != n*m.OutDim() {
		panic(fmt.Sprintf("nn: batch grad len %d != %d×%d", len(dOut), n, m.OutDim()))
	}
	grad := ws.g[:len(dOut)]
	copy(grad, dOut)
	for l := len(m.layers) - 1; l >= 0; l-- {
		ly := m.layers[l]
		ly.act.scaleByDeriv(grad, ws.ys[l])
		mathx.BiasGradAccum(ly.gb, ly.out, grad, n)
		xin := ws.x
		if l > 0 {
			xin = ws.ys[l-1]
		}
		mathx.GemmOuterAccum(ly.gw, ly.in, ly.out, grad, xin, n)
		if l > 0 {
			din := ws.d[:n*ly.in]
			mathx.GemmTIn(ly.w, ly.in, ly.out, grad, din, n, 0, ly.in)
			ws.g, ws.d = ws.d, ws.g
			grad = din
		}
	}
}

// InputGradBatch returns dLoss/dInput (flat n×InDim) for the most recent
// ForwardBatch on ws given dOut, without touching the parameter gradient
// accumulators — the batched form of the critic's action-gradient pass,
// where only the input gradient is needed. Only the input columns [lo,hi)
// are computed; the other columns of the result are not written. Rows and
// columns are independent, and each computed element's accumulation order
// matches the single-sample Backward exactly. The returned slice aliases
// the workspace.
func (m *MLP) InputGradBatch(ws *BatchWorkspace, dOut []float64, lo, hi int) []float64 {
	n := ws.n
	if len(dOut) != n*m.OutDim() {
		panic(fmt.Sprintf("nn: batch grad len %d != %d×%d", len(dOut), n, m.OutDim()))
	}
	grad := ws.g[:len(dOut)]
	copy(grad, dOut)
	for l := len(m.layers) - 1; l >= 0; l-- {
		ly := m.layers[l]
		ly.act.scaleByDeriv(grad, ws.ys[l])
		din := ws.d[:n*ly.in]
		if l > 0 {
			mathx.GemmTIn(ly.w, ly.in, ly.out, grad, din, n, 0, ly.in)
		} else {
			mathx.GemmTIn(ly.w, ly.in, ly.out, grad, din, n, lo, hi)
		}
		ws.g, ws.d = ws.d, ws.g
		grad = din
	}
	return grad
}
