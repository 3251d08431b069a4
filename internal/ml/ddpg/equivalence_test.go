package ddpg

import (
	"reflect"
	"testing"

	"github.com/hunter-cdb/hunter/internal/parallel"
	"github.com/hunter-cdb/hunter/internal/sim"
)

// trainAgent runs a fixed training schedule and returns the final
// parameter snapshot.
func trainAgent(t *testing.T, workers int) Snapshot {
	t.Helper()
	defer parallel.SetWorkers(parallel.SetWorkers(workers))
	a, err := New(Config{StateDim: 6, ActionDim: 4, Hidden: []int{32, 32}, BatchSize: 32, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	env := sim.NewRNG(123)
	state := make([]float64, 6)
	for i := range state {
		state[i] = env.Float64()
	}
	for step := 0; step < 80; step++ {
		act := a.ActNoisy(state, 0.2)
		next := make([]float64, 6)
		var reward float64
		for i := range next {
			next[i] = sim.Clamp(state[i]+0.1*(act[i%4]-0.5), 0, 1)
			reward -= (next[i] - 0.7) * (next[i] - 0.7)
		}
		a.Observe(Transition{State: state, Action: act, Reward: reward, Next: next})
		a.TrainStep()
		state = next
	}
	return a.Snapshot()
}

// TestTrainStepEquivalentAcrossWorkers proves the learned weights are
// bit-identical for 1 worker and for many. The minibatch kernels run
// inline; what still fans out above its work threshold is the
// element-wise Adam and soft-update loops of wider layers.
func TestTrainStepEquivalentAcrossWorkers(t *testing.T) {
	serial := trainAgent(t, 1)
	for _, w := range []int{2, 8} {
		par := trainAgent(t, w)
		if !reflect.DeepEqual(par, serial) {
			t.Fatalf("workers %d: trained weights diverged from the serial run", w)
		}
	}
}
