package nn

import (
	"math"
	"testing"

	"github.com/hunter-cdb/hunter/internal/sim"
)

func TestForwardDimensions(t *testing.T) {
	m, err := NewMLP([]int{3, 5, 2}, []Activation{ReLU, Linear}, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	out := m.Forward([]float64{1, 2, 3})
	if len(out) != 2 {
		t.Fatalf("output dim %d", len(out))
	}
	if m.InDim() != 3 || m.OutDim() != 2 {
		t.Fatal("dims wrong")
	}
}

func TestNewMLPErrors(t *testing.T) {
	if _, err := NewMLP([]int{3}, nil, sim.NewRNG(1)); err == nil {
		t.Fatal("single layer should fail")
	}
	if _, err := NewMLP([]int{3, 2}, []Activation{ReLU, ReLU}, sim.NewRNG(1)); err == nil {
		t.Fatal("activation count mismatch should fail")
	}
	if _, err := NewMLP([]int{3, 0}, []Activation{ReLU}, sim.NewRNG(1)); err == nil {
		t.Fatal("zero layer size should fail")
	}
}

// TestGradientCheck compares backprop gradients against finite differences
// on a small network with smooth activations.
func TestGradientCheck(t *testing.T) {
	rng := sim.NewRNG(2)
	m, err := NewMLP([]int{3, 4, 2}, []Activation{Tanh, Sigmoid}, rng)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{0.3, -0.7, 1.1}
	target := []float64{0.2, 0.9}
	loss := func(mm *MLP) float64 {
		out := mm.Forward(x)
		var l float64
		for i := range out {
			d := out[i] - target[i]
			l += d * d
		}
		return l
	}
	// Analytic gradient.
	m.ZeroGrad()
	out := m.Forward(x)
	dOut := make([]float64, len(out))
	for i := range out {
		dOut[i] = 2 * (out[i] - target[i])
	}
	m.Backward(dOut)
	analytic := make([]float64, 0)
	for _, ly := range m.layers {
		analytic = append(analytic, ly.gw...)
		analytic = append(analytic, ly.gb...)
	}
	// Numeric gradient via central differences over flattened weights.
	w := m.Weights()
	const eps = 1e-6
	for i := 0; i < len(w); i += 7 { // sample every 7th weight
		wp := append([]float64(nil), w...)
		wp[i] += eps
		if err := m.SetWeights(wp); err != nil {
			t.Fatal(err)
		}
		lp := loss(m)
		wp[i] -= 2 * eps
		if err := m.SetWeights(wp); err != nil {
			t.Fatal(err)
		}
		lm := loss(m)
		numeric := (lp - lm) / (2 * eps)
		if err := m.SetWeights(w); err != nil {
			t.Fatal(err)
		}
		// Map flat index to the analytic gradient (same flattening order).
		if diff := math.Abs(numeric - analytic[i]); diff > 1e-4*(1+math.Abs(numeric)) {
			t.Fatalf("gradient mismatch at %d: numeric %g vs analytic %g", i, numeric, analytic[i])
		}
	}
}

// TestLearnsXOR trains a tiny net on XOR — a non-linearly-separable task
// that requires the hidden layer and working backprop.
func TestLearnsXOR(t *testing.T) {
	rng := sim.NewRNG(3)
	m, err := NewMLP([]int{2, 8, 1}, []Activation{Tanh, Sigmoid}, rng)
	if err != nil {
		t.Fatal(err)
	}
	in := [][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	out := []float64{0, 1, 1, 0}
	for epoch := 0; epoch < 2000; epoch++ {
		m.ZeroGrad()
		for i := range in {
			y := m.Forward(in[i])
			m.Backward([]float64{2 * (y[0] - out[i])})
		}
		m.Step(0.05, len(in), 0)
	}
	for i := range in {
		y := m.Forward(in[i])[0]
		if math.Abs(y-out[i]) > 0.2 {
			t.Fatalf("XOR(%v) = %.3f, want %v", in[i], y, out[i])
		}
	}
}

func TestWeightsRoundTrip(t *testing.T) {
	rng := sim.NewRNG(4)
	a, _ := NewMLP([]int{3, 4, 2}, []Activation{ReLU, Linear}, rng)
	b, _ := NewMLP([]int{3, 4, 2}, []Activation{ReLU, Linear}, rng)
	if err := b.SetWeights(a.Weights()); err != nil {
		t.Fatal(err)
	}
	x := []float64{0.1, 0.2, 0.3}
	ya, yb := a.Forward(x), b.Forward(x)
	for i := range ya {
		if ya[i] != yb[i] {
			t.Fatal("weights round trip changed outputs")
		}
	}
	if err := b.SetWeights(make([]float64, 3)); err == nil {
		t.Fatal("wrong weight count should fail")
	}
}

func TestCloneIndependence(t *testing.T) {
	rng := sim.NewRNG(5)
	a, _ := NewMLP([]int{2, 3, 1}, []Activation{ReLU, Linear}, rng)
	c := a.Clone()
	x := []float64{1, 1}
	before := c.Forward(x)[0]
	// Train a only.
	for i := 0; i < 50; i++ {
		a.ZeroGrad()
		a.Forward(x)
		a.Backward([]float64{1})
		a.Step(0.1, 1, 0)
	}
	if c.Forward(x)[0] != before {
		t.Fatal("training the original must not affect the clone")
	}
}

func TestSoftUpdate(t *testing.T) {
	rng := sim.NewRNG(6)
	src, _ := NewMLP([]int{2, 2}, []Activation{Linear}, rng)
	dst := src.Clone()
	// Shift src weights.
	w := src.Weights()
	for i := range w {
		w[i] += 1
	}
	if err := src.SetWeights(w); err != nil {
		t.Fatal(err)
	}
	src.SoftUpdate(dst, 0.1)
	dw := dst.Weights()
	sw := src.Weights()
	for i := range dw {
		want := 0.1*sw[i] + 0.9*(sw[i]-1)
		if math.Abs(dw[i]-want) > 1e-12 {
			t.Fatalf("soft update wrong at %d: %v want %v", i, dw[i], want)
		}
	}
	// τ=1 copies exactly.
	src.SoftUpdate(dst, 1)
	for i, v := range dst.Weights() {
		if v != sw[i] {
			t.Fatal("tau=1 should copy source")
		}
	}
}

func TestGradientClipping(t *testing.T) {
	rng := sim.NewRNG(7)
	m, _ := NewMLP([]int{1, 1}, []Activation{Linear}, rng)
	before := m.Weights()
	m.ZeroGrad()
	m.Forward([]float64{1e6})
	m.Backward([]float64{1e6})
	m.Step(0.001, 1, 1.0) // clip to unit norm
	after := m.Weights()
	var move float64
	for i := range before {
		d := after[i] - before[i]
		move += d * d
	}
	// Adam caps per-weight movement at ~lr; clipped total must be tiny.
	if math.Sqrt(move) > 0.01 {
		t.Fatalf("clipped update moved %g", math.Sqrt(move))
	}
}

func TestActivations(t *testing.T) {
	if ReLU.apply(-2) != 0 || ReLU.apply(3) != 3 {
		t.Fatal("relu wrong")
	}
	if Sigmoid.apply(0) != 0.5 {
		t.Fatal("sigmoid wrong")
	}
	if Tanh.apply(0) != 0 {
		t.Fatal("tanh wrong")
	}
	if Linear.apply(1.5) != 1.5 || Linear.deriv(99) != 1 {
		t.Fatal("linear wrong")
	}
}

// TestActivationSwitchMatchesPerElement pins the per-layer activation
// passes the batch kernels use to the per-element apply/deriv the
// single-sample path uses, bit for bit, on the values where a rewrite
// could slip: signed zeros, NaN and infinities.
func TestActivationSwitchMatchesPerElement(t *testing.T) {
	nz := math.Copysign(0, -1)
	vals := []float64{-2, -0.5, nz, 0, 1e-300, 0.5, 3, math.NaN(), math.Inf(1), math.Inf(-1)}
	same := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
	}
	for _, act := range []Activation{Linear, ReLU, Tanh, Sigmoid} {
		y := append([]float64(nil), vals...)
		act.applyAll(y)
		for i, v := range vals {
			if want := act.apply(v); !same(y[i], want) {
				t.Fatalf("activation %d: applyAll(%v) = %v, apply %v", act, v, y[i], want)
			}
		}
		for _, gv := range vals {
			g := make([]float64, len(vals))
			for i := range g {
				g[i] = gv
			}
			act.scaleByDeriv(g, vals)
			for i, v := range vals {
				if want := gv * act.deriv(v); !same(g[i], want) {
					t.Fatalf("activation %d: gradient %v at output %v scaled to %v, deriv gives %v", act, gv, v, g[i], want)
				}
			}
		}
	}
}
