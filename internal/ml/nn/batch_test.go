package nn

import (
	"reflect"
	"testing"

	"github.com/hunter-cdb/hunter/internal/parallel"
	"github.com/hunter-cdb/hunter/internal/sim"
)

func batchNet(t *testing.T) *MLP {
	t.Helper()
	m, err := NewMLP([]int{7, 24, 16, 3}, []Activation{ReLU, Tanh, Sigmoid}, sim.NewRNG(21))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func batchInputs(n, dim int, seed int64) []float64 {
	rng := sim.NewRNG(seed)
	x := make([]float64, n*dim)
	for i := range x {
		x[i] = rng.Gaussian(0, 1)
	}
	return x
}

// TestForwardBatchMatchesForward requires every row of a batched forward
// pass to be bitwise equal to a single-sample Forward of that row, at 1
// worker and at 8.
func TestForwardBatchMatchesForward(t *testing.T) {
	m := batchNet(t)
	const n = 13
	x := batchInputs(n, 7, 3)
	for _, w := range []int{1, 8} {
		prev := parallel.SetWorkers(w)
		var ws BatchWorkspace
		got := m.ForwardBatch(&ws, x, n)
		for r := 0; r < n; r++ {
			want := m.Forward(x[r*7 : (r+1)*7])
			if !reflect.DeepEqual(want, append([]float64(nil), got[r*3:(r+1)*3]...)) {
				t.Fatalf("workers %d row %d: batched forward differs", w, r)
			}
		}
		parallel.SetWorkers(prev)
	}
}

// TestBackwardBatchMatchesPerSample requires the batched backward pass to
// accumulate exactly the gradients of a sample-at-a-time Forward/Backward
// loop over the batch, in the same order, at 1 worker and at 8.
func TestBackwardBatchMatchesPerSample(t *testing.T) {
	const n = 13
	x := batchInputs(n, 7, 4)
	dOut := batchInputs(n, 3, 5)
	for _, w := range []int{1, 8} {
		prev := parallel.SetWorkers(w)

		ref := batchNet(t)
		ref.ZeroGrad()
		for r := 0; r < n; r++ {
			ref.Forward(x[r*7 : (r+1)*7])
			ref.Backward(dOut[r*3 : (r+1)*3])
		}

		m := batchNet(t)
		m.ZeroGrad()
		var ws BatchWorkspace
		m.ForwardBatch(&ws, x, n)
		m.BackwardBatch(&ws, dOut)

		for l := range m.layers {
			if !reflect.DeepEqual(ref.layers[l].gw, m.layers[l].gw) {
				t.Fatalf("workers %d layer %d: weight gradients differ", w, l)
			}
			if !reflect.DeepEqual(ref.layers[l].gb, m.layers[l].gb) {
				t.Fatalf("workers %d layer %d: bias gradients differ", w, l)
			}
		}
		parallel.SetWorkers(prev)
	}
}

// TestInputGradBatchMatchesBackward requires the batched input-gradient
// pass to return, row for row, the dLoss/dInput of a single-sample
// Backward over the requested column range — the full input, a suffix
// like the critic's action columns, and an interior range — without
// touching the parameter gradient accumulators.
func TestInputGradBatchMatchesBackward(t *testing.T) {
	const n = 9
	x := batchInputs(n, 7, 6)
	dOut := batchInputs(n, 3, 7)
	for _, w := range []int{1, 8} {
		prev := parallel.SetWorkers(w)

		ref := batchNet(t)
		wantDin := make([][]float64, n)
		for r := 0; r < n; r++ {
			ref.Forward(x[r*7 : (r+1)*7])
			ref.ZeroGrad()
			wantDin[r] = ref.Backward(dOut[r*3 : (r+1)*3])
		}

		m := batchNet(t)
		m.ZeroGrad()
		for _, cols := range [][2]int{{0, 7}, {3, 7}, {2, 5}} {
			lo, hi := cols[0], cols[1]
			var ws BatchWorkspace // fresh, so no earlier pass's values linger
			m.ForwardBatch(&ws, x, n)
			din := m.InputGradBatch(&ws, dOut, lo, hi)
			for r := 0; r < n; r++ {
				if !reflect.DeepEqual(wantDin[r][lo:hi], append([]float64(nil), din[r*7+lo:r*7+hi]...)) {
					t.Fatalf("workers %d columns [%d,%d) row %d: input gradients differ", w, lo, hi, r)
				}
			}
		}
		for l := range m.layers {
			for _, g := range m.layers[l].gw {
				if g != 0 {
					t.Fatalf("workers %d layer %d: InputGradBatch touched weight gradients", w, l)
				}
			}
			for _, g := range m.layers[l].gb {
				if g != 0 {
					t.Fatalf("workers %d layer %d: InputGradBatch touched bias gradients", w, l)
				}
			}
		}
		parallel.SetWorkers(prev)
	}
}

// TestBatchAllocs guards the batched passes' allocation budget: with a
// warm workspace the kernels run inline on preallocated buffers, so a
// forward/backward/input-gradient cycle allocates nothing.
func TestBatchAllocs(t *testing.T) {
	defer parallel.SetWorkers(parallel.SetWorkers(1))
	m := batchNet(t)
	const n = 13
	x := batchInputs(n, 7, 8)
	dOut := batchInputs(n, 3, 9)
	var ws BatchWorkspace
	m.ForwardBatch(&ws, x, n)
	allocs := testing.AllocsPerRun(10, func() {
		m.ForwardBatch(&ws, x, n)
		m.BackwardBatch(&ws, dOut)
		m.InputGradBatch(&ws, dOut, 0, 7)
	})
	if allocs > 0 {
		t.Errorf("warm batch cycle = %v allocs, want 0", allocs)
	}
}
