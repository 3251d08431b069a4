package ddpg

import (
	"reflect"
	"testing"

	"github.com/hunter-cdb/hunter/internal/parallel"
	"github.com/hunter-cdb/hunter/internal/sim"
)

// This file pins the batched TrainStep to the pre-batching implementation:
// referenceTrainStep below is a port of the original per-transition update
// loop — one actor/critic forward and backward per sample, in batch order —
// and the test requires the minibatch-kernel TrainStep to land on exactly
// the same weights, step after step, for any worker count.

func referenceTrainStep(a *Agent) float64 {
	if a.replay.Len() < a.cfg.BatchSize {
		return 0
	}
	batch := a.replay.Sample(a.cfg.BatchSize, a.rng)
	a.steps++
	s := a.cfg.StateDim
	sa := make([]float64, s+a.cfg.ActionDim)

	ys := make([]float64, len(batch))
	for i, t := range batch {
		y := t.Reward
		if !t.Done && len(t.Next) == s {
			na := a.actorT.Forward(t.Next)
			copy(sa, t.Next)
			copy(sa[s:], na)
			y += gamma * a.criticT.Forward(sa)[0]
		}
		ys[i] = y
	}

	a.critic.ZeroGrad()
	var loss float64
	for i, t := range batch {
		copy(sa, t.State)
		copy(sa[s:], t.Action)
		q := a.critic.Forward(sa)[0]
		d := q - ys[i]
		loss += d * d
		a.critic.Backward([]float64{2 * d})
	}
	a.critic.Step(criticLR, len(batch), 5)

	negs := make([][]float64, len(batch))
	for i, t := range batch {
		act := a.actor.Forward(t.State)
		copy(sa, t.State)
		copy(sa[s:], act)
		a.critic.Forward(sa)
		a.critic.ZeroGrad()
		dIn := a.critic.Backward([]float64{1})
		dAct := dIn[s:]
		neg := make([]float64, len(dAct))
		for j := range neg {
			neg[j] = -dAct[j]
		}
		negs[i] = neg
	}
	a.actor.ZeroGrad()
	for i, t := range batch {
		a.actor.Forward(t.State)
		a.actor.Backward(negs[i])
	}
	a.critic.ZeroGrad()
	a.actor.Step(actorLR, len(batch), 5)

	a.actor.SoftUpdate(a.actorT, tau)
	a.critic.SoftUpdate(a.criticT, tau)
	return loss / float64(len(batch))
}

// newTestAgent builds an agent and preloads its replay buffer with a
// deterministic mix of transitions, including terminal ones (Done) so the
// zero-filled invalid rows of the batched TD-target pass are exercised.
func newTestAgent(t *testing.T, seed int64) *Agent {
	t.Helper()
	a, err := New(Config{StateDim: 6, ActionDim: 4, Hidden: []int{32, 32}, BatchSize: 32, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	env := sim.NewRNG(seed * 31)
	for i := 0; i < 90; i++ {
		tr := Transition{
			State:  make([]float64, 6),
			Action: make([]float64, 4),
			Reward: env.Gaussian(0, 1),
			Next:   make([]float64, 6),
			Done:   i%7 == 3,
		}
		for j := range tr.State {
			tr.State[j] = env.Float64()
		}
		for j := range tr.Action {
			tr.Action[j] = env.Float64()
		}
		for j := range tr.Next {
			tr.Next[j] = env.Float64()
		}
		a.Observe(tr)
	}
	return a
}

// TestTrainStepMatchesSeedImplementation runs the batched TrainStep and
// the per-transition reference in lockstep on identically initialized
// agents and requires identical losses and bit-identical parameter
// snapshots after every step, at 1 worker and at 8.
func TestTrainStepMatchesSeedImplementation(t *testing.T) {
	for _, w := range []int{1, 8} {
		prev := parallel.SetWorkers(w)
		got := newTestAgent(t, 17)
		want := newTestAgent(t, 17)
		for step := 0; step < 25; step++ {
			lg := got.TrainStep()
			lw := referenceTrainStep(want)
			if lg != lw {
				t.Fatalf("workers %d step %d: loss %v != reference %v", w, step, lg, lw)
			}
			if !reflect.DeepEqual(got.Snapshot(), want.Snapshot()) {
				t.Fatalf("workers %d step %d: weights diverged from reference", w, step)
			}
		}
		parallel.SetWorkers(prev)
	}
}

// TestTrainStepAllocs guards the batched update's allocation budget: with
// a warm workspace every kernel, the Adam update and the soft target
// update run inline on preallocated buffers, so a training step allocates
// nothing — every transition slice, activation vector and gradient buffer
// of the per-transition implementation (~1800 allocations per step) is
// gone.
func TestTrainStepAllocs(t *testing.T) {
	defer parallel.SetWorkers(parallel.SetWorkers(1))
	a := newTestAgent(t, 5)
	a.TrainStep() // size the workspaces
	allocs := testing.AllocsPerRun(10, func() { a.TrainStep() })
	if allocs > 0 {
		t.Errorf("TrainStep warm = %v allocs, want 0 (per-transition implementation: ~1800)", allocs)
	}
}
