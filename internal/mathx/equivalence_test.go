package mathx

import (
	"math"
	"sync/atomic"
	"testing"

	"github.com/hunter-cdb/hunter/internal/parallel"
	"github.com/hunter-cdb/hunter/internal/sim"
)

// mulNaive is the seed repository's serial triple loop, kept as the
// reference the blocked kernel must match bit for bit.
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

// TestMulMatchesNaiveBitwise pins the blocked kernel's accumulation order:
// for every output element the k sum must run exactly as the seed loop did.
func TestMulMatchesNaiveBitwise(t *testing.T) {
	rng := sim.NewRNG(7)
	for _, sz := range [][3]int{{2, 2, 2}, {5, 7, 3}, {64, 64, 64}, {97, 130, 61}, {300, 150, 200}, {257, 511, 129}} {
		a := randMatrix(rng, sz[0], sz[1])
		b := randMatrix(rng, sz[1], sz[2])
		want := mulNaive(a, b)
		got := a.Mul(b)
		bitEqual(t, "mul", got.Data, want.Data)
	}
}

// TestMulEquivalentAcrossWorkers asserts serial ≡ parallel bit for bit.
func TestMulEquivalentAcrossWorkers(t *testing.T) {
	rng := sim.NewRNG(11)
	a := randMatrix(rng, 300, 200)
	b := randMatrix(rng, 200, 250)
	prev := parallel.SetWorkers(1)
	serial := a.Mul(b)
	for _, w := range []int{2, 4, 8} {
		parallel.SetWorkers(w)
		bitEqual(t, "mul workers", a.Mul(b).Data, serial.Data)
	}
	parallel.SetWorkers(prev)
}

// TestTinyMulStaysSerial pins the cutoff behaviour (the tiny-input
// regression guard): a 2×2 product must never spawn a worker goroutine,
// even with many workers configured.
func TestTinyMulStaysSerial(t *testing.T) {
	defer parallel.SetWorkers(parallel.SetWorkers(8))
	var spawns atomic.Int32
	parallel.SetSpawnObserver(func(int) { spawns.Add(1) })
	defer parallel.SetSpawnObserver(nil)

	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	_ = a.Mul(b)
	_ = a.MulVec([]float64{1, 2})
	_ = a.MulT(b)
	_ = a.Gram()
	if n := spawns.Load(); n != 0 {
		t.Fatalf("tiny operands fanned out %d times; must stay on the serial path", n)
	}

	// Sanity check the hook itself: a large product must fan out.
	big := NewMatrix(512, 512)
	_ = big.Mul(big)
	if spawns.Load() == 0 {
		t.Fatal("512x512 mul should fan out with 8 workers")
	}
}

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

func TestMulTMatchesMul(t *testing.T) {
	rng := sim.NewRNG(17)
	a := randMatrix(rng, 40, 30)
	b := randMatrix(rng, 25, 30)
	got := a.MulT(b)
	want := a.Mul(b.T())
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("mulT shape %dx%d, want %dx%d", got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range got.Data {
		if !almostEq(got.Data[i], want.Data[i], 1e-12) {
			t.Fatalf("mulT element %d: %v != %v", i, got.Data[i], want.Data[i])
		}
	}
}

func TestGramMatchesTransposeMul(t *testing.T) {
	rng := sim.NewRNG(19)
	for _, sz := range [][2]int{{5, 3}, {500, 63}, {120, 40}} {
		x := randMatrix(rng, sz[0], sz[1])
		got := x.Gram()
		want := x.T().Mul(x)
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
	for _, w := range []int{1, 8} {
		prev := parallel.SetWorkers(w)
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
		parallel.SetWorkers(prev)
	}
}
