package mathx

import (
	"math"
	"testing"

	"github.com/hunter-cdb/hunter/internal/parallel"
	"github.com/hunter-cdb/hunter/internal/sim"
)

// mulNaive is the seed repository's serial triple loop, the reference
// Gram is checked against.
func mulNaive(m, b *Matrix) *Matrix {
	out := NewMatrix(m.Rows, b.Cols)
	for i := 0; i < m.Rows; i++ {
		mi := m.Row(i)
		oi := out.Row(i)
		for k := 0; k < m.Cols; k++ {
			a := mi[k]
			if a == 0 {
				continue
			}
			bk := b.Row(k)
			for j := range oi {
				oi[j] += a * bk[j]
			}
		}
	}
	return out
}

func randMatrix(rng *sim.RNG, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.Gaussian(0, 1)
	}
	// Sprinkle exact zeros so the zero-skip path is exercised.
	for k := 0; k < len(m.Data)/17; k++ {
		m.Data[rng.Intn(len(m.Data))] = 0
	}
	return m
}

// bitEqual compares bit patterns, so a +0 where the reference has −0
// fails too.
func bitEqual(t *testing.T, what string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: length %d != %d", what, len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("%s: element %d differs: %v != %v", what, i, a[i], b[i])
		}
	}
}

// MulVec and Gram run inline; the two worker tests below stay as guards
// that a returning fan-out keeps every output bit.
func TestMulVecEquivalentAcrossWorkers(t *testing.T) {
	rng := sim.NewRNG(13)
	m := randMatrix(rng, 4000, 80)
	v := make([]float64, 80)
	for i := range v {
		v[i] = rng.Gaussian(0, 1)
	}
	prev := parallel.SetWorkers(1)
	serial := m.MulVec(v)
	parallel.SetWorkers(8)
	bitEqual(t, "mulvec", m.MulVec(v), serial)
	parallel.SetWorkers(prev)
}

func TestGramMatchesTransposeMul(t *testing.T) {
	rng := sim.NewRNG(19)
	for _, sz := range [][2]int{{5, 3}, {500, 63}, {120, 40}} {
		x := randMatrix(rng, sz[0], sz[1])
		got := x.Gram()
		want := mulNaive(x.T(), x)
		for i := range got.Data {
			if !almostEq(got.Data[i], want.Data[i], 1e-9) {
				t.Fatalf("gram element %d: %v != %v", i, got.Data[i], want.Data[i])
			}
		}
		// Exact symmetry: the mirror shares the computed float.
		for i := 0; i < got.Rows; i++ {
			for j := 0; j < i; j++ {
				if got.At(i, j) != got.At(j, i) {
					t.Fatalf("gram not exactly symmetric at (%d,%d)", i, j)
				}
			}
		}
	}
}

func TestGramEquivalentAcrossWorkers(t *testing.T) {
	rng := sim.NewRNG(23)
	x := randMatrix(rng, 500, 63)
	prev := parallel.SetWorkers(1)
	serial := x.Gram()
	parallel.SetWorkers(8)
	bitEqual(t, "gram", x.Gram().Data, serial.Data)
	parallel.SetWorkers(prev)
}

// gemvRef replicates the seed nn layer loops the flat kernels replaced.
func gemvRef(w []float64, in, out int, x, bias []float64) ([]float64, []float64, []float64) {
	y := make([]float64, out)
	for o := 0; o < out; o++ {
		s := bias[o]
		row := w[o*in : (o+1)*in]
		for i, v := range x {
			s += row[i] * v
		}
		y[o] = s
	}
	g := y // reuse y as the upstream gradient for the backward reference
	gw := make([]float64, in*out)
	din := make([]float64, in)
	for o := 0; o < out; o++ {
		gv := g[o]
		row := w[o*in : (o+1)*in]
		grow := gw[o*in : (o+1)*in]
		for i := 0; i < in; i++ {
			grow[i] += gv * x[i]
			din[i] += gv * row[i]
		}
	}
	return y, gw, din
}

func TestFlatKernelsMatchSeedLoopsBitwise(t *testing.T) {
	rng := sim.NewRNG(29)
	for _, sz := range [][2]int{{3, 2}, {64, 64}, {257, 130}, {33, 513}} {
		in, out := sz[0], sz[1]
		wts := make([]float64, in*out)
		for i := range wts {
			wts[i] = rng.Gaussian(0, 1)
		}
		x := make([]float64, in)
		for i := range x {
			x[i] = rng.Gaussian(0, 1)
		}
		bias := make([]float64, out)
		for i := range bias {
			bias[i] = rng.Gaussian(0, 1)
		}
		wantY, wantGW, wantDin := gemvRef(wts, in, out, x, bias)

		y := make([]float64, out)
		GemvBias(wts, in, out, x, bias, y)
		bitEqual(t, "gemvBias", y, wantY)

		gw := make([]float64, in*out)
		OuterAccum(gw, in, out, y, x)
		bitEqual(t, "outerAccum", gw, wantGW)

		din := make([]float64, in)
		GemvTAccum(wts, in, out, y, din)
		bitEqual(t, "gemvTAccum", din, wantDin)
	}
}
