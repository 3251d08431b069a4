// Package cdbtune implements the CDBTune baseline (Zhang et al., SIGMOD
// '19): end-to-end knob tuning with plain DDPG over the raw 63-metric
// state — the paper's strongest baseline and the DRL core HUNTER
// warm-starts. Started from scratch (no pre-trained model, per the
// evaluation protocol of §6), it suffers exactly the cold-start behaviour
// Figure 1 documents.
package cdbtune

import (
	"errors"

	"github.com/hunter-cdb/hunter/internal/metrics"
	"github.com/hunter-cdb/hunter/internal/ml/ddpg"
	"github.com/hunter-cdb/hunter/internal/tuner"
)

// The reference settings.
const (
	// initRandom is the number of random warm-up steps before the policy
	// drives exploration.
	initRandom = 8
	// noiseStart/noiseEnd schedule the exploration noise. They are typed
	// so that noiseEnd-noiseStart rounds to float64 like run-time math.
	noiseStart, noiseEnd float64 = 0.5, 0.05
	// noiseDecaySteps is the horizon over which noise anneals.
	noiseDecaySteps = 700
	// trainPerStep is the number of minibatch updates after each sample.
	trainPerStep = 4
)

// Tuner is the end-to-end DDPG tuner.
type Tuner struct{}

// New returns a CDBTune tuner.
func New() *Tuner { return &Tuner{} }

// Name implements tuner.Tuner.
func (t *Tuner) Name() string { return "CDBTune" }

// Tune implements tuner.Tuner.
func (t *Tuner) Tune(s *tuner.Session) error {
	dim := s.Space.Dim()
	rng := s.RNG.Fork()
	agent, err := ddpg.New(ddpg.Config{
		StateDim:  metrics.Count,
		ActionDim: dim,
		Seed:      rng.Int63(),
	})
	if err != nil {
		return err
	}
	norm := tuner.NewStateNormalizer(metrics.Count)

	// Random bootstrap to obtain an initial state.
	var state []float64
	for i := 0; i < initRandom && !s.Exhausted(); i++ {
		smp, err := s.Evaluate(s.Space.Random(rng))
		if err != nil {
			if errors.Is(err, tuner.ErrBudgetExhausted) {
				return nil
			}
			return err
		}
		if len(smp.State) == metrics.Count {
			norm.Observe(smp.State)
			state = norm.Normalize(smp.State)
		}
	}
	if state == nil {
		state = make([]float64, metrics.Count)
	}

	step := 0
	for !s.Exhausted() {
		step++
		sigma := noiseStart + (noiseEnd-noiseStart)*minf(1, float64(step)/float64(noiseDecaySteps))
		action := agent.ActNoisy(state, sigma)
		smp, err := s.Evaluate(action)
		done := err != nil
		var next []float64
		if len(smp.State) == metrics.Count {
			norm.Observe(smp.State)
			next = norm.Normalize(smp.State)
		} else {
			next = state // boot failure: state unchanged
		}
		agent.Observe(ddpg.Transition{
			State:  state,
			Action: action,
			Reward: s.Fitness(smp.Perf),
			Next:   next,
			Done:   done,
		})
		for k := 0; k < trainPerStep; k++ {
			agent.TrainStep()
		}
		s.ChargeModelUpdate()
		state = next
		if err != nil {
			if errors.Is(err, tuner.ErrBudgetExhausted) {
				return nil
			}
			return err
		}
	}
	return nil
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
