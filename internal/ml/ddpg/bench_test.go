package ddpg

import (
	"testing"

	"github.com/hunter-cdb/hunter/internal/parallel"
	"github.com/hunter-cdb/hunter/internal/sim"
)

// benchAgent builds an agent at the hybrid session's scale — the
// Recommender trains a 6-dim PCA state against the 20 sifted knobs with
// the default 64×64 hidden layers and batch 32 — and fills its replay
// buffer with a few hundred pool transitions.
func benchAgent(b *testing.B) *Agent {
	b.Helper()
	a, err := New(Config{StateDim: 6, ActionDim: 20, Seed: 11})
	if err != nil {
		b.Fatal(err)
	}
	env := sim.NewRNG(42)
	for i := 0; i < 400; i++ {
		t := Transition{
			State:  make([]float64, 6),
			Action: make([]float64, 20),
			Next:   make([]float64, 6),
			Reward: env.Gaussian(0, 1),
		}
		for j := range t.State {
			t.State[j] = env.Gaussian(0, 1)
			t.Next[j] = env.Gaussian(0, 1)
		}
		for j := range t.Action {
			t.Action[j] = env.Float64()
		}
		a.Observe(t)
	}
	return a
}

// benchTrainStep measures one minibatch update — the per-step fixed cost
// the hybrid session pays ~900 times per 24h budget — at the given worker
// count. The Serial variant is the single-worker baseline.
func benchTrainStep(b *testing.B, workers int) {
	defer parallel.SetWorkers(parallel.SetWorkers(workers))
	a := benchAgent(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.TrainStep()
	}
}

func BenchmarkTrainStep(b *testing.B)       { benchTrainStep(b, 0) }
func BenchmarkTrainStepSerial(b *testing.B) { benchTrainStep(b, 1) }
