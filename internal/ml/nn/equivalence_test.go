package nn

import (
	"reflect"
	"testing"

	"github.com/hunter-cdb/hunter/internal/parallel"
	"github.com/hunter-cdb/hunter/internal/sim"
)

// trainWide fits a wide MLP (a 130×257 first layer, over 32k weights)
// for a few epochs and returns the weights.
func trainWide(t *testing.T, workers int) []float64 {
	t.Helper()
	defer parallel.SetWorkers(parallel.SetWorkers(workers))
	rng := sim.NewRNG(31)
	m, err := NewMLP([]int{130, 257, 64, 1}, []Activation{ReLU, ReLU, Linear}, rng)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 130)
	for epoch := 0; epoch < 10; epoch++ {
		for s := 0; s < 8; s++ {
			for i := range x {
				x[i] = sim.NewRNG(int64(epoch*100+s)).Gaussian(0, 1)
			}
			out := m.Forward(x)
			target := x[0]*2 - x[1]
			m.Backward([]float64{2 * (out[0] - target)})
		}
		m.Step(1e-3, 8, 5)
	}
	return m.Weights()
}

// TestTrainingEquivalentAcrossWorkers proves forward, backward and Adam
// produce bit-identical weights for 1 worker and for many workers. The
// kernels run inline, so this guards against a fan-out returning with a
// different accumulation order.
func TestTrainingEquivalentAcrossWorkers(t *testing.T) {
	serial := trainWide(t, 1)
	for _, w := range []int{2, 8} {
		if par := trainWide(t, w); !reflect.DeepEqual(par, serial) {
			t.Fatalf("workers %d: trained weights diverged from serial", w)
		}
	}
}
