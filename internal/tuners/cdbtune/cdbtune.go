// Package cdbtune implements the CDBTune baseline (Zhang et al., SIGMOD
// '19): end-to-end knob tuning with plain DDPG over the raw 63-metric
// state — the paper's strongest baseline and the DRL core HUNTER
// warm-starts. Started from scratch (no pre-trained model, per the
// evaluation protocol of §6), it suffers exactly the cold-start behaviour
// Figure 1 documents. Run is also QTune's loop: QTune is this DDPG with
// workload features appended to the state.
package cdbtune

import (
	"github.com/hunter-cdb/hunter/internal/metrics"
	"github.com/hunter-cdb/hunter/internal/ml/ddpg"
	"github.com/hunter-cdb/hunter/internal/tuner"
	"github.com/hunter-cdb/hunter/internal/workload"
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
func (t *Tuner) Tune(s *tuner.Session) error { return Run(s, noiseDecaySteps, nil) }

// Run is the DDPG tuning loop: random bootstrap steps, then noisy policy
// actions whose exploration noise anneals over decaySteps steps, with
// minibatch training after every sample. The state is the normalized
// metric vector; a non-nil featurize appends its features of the
// session's workload to every state, re-read once after the first drift.
func Run(s *tuner.Session, decaySteps int, featurize func(*workload.Profile) []float64) error {
	rng := s.RNG.Fork()
	var features []float64
	if featurize != nil {
		features = featurize(s.Req.Workload)
	}
	agent, err := ddpg.New(ddpg.Config{
		StateDim:  metrics.Count + len(features),
		ActionDim: s.Space.Dim(),
		Seed:      rng.Int63(),
	})
	if err != nil {
		return err
	}
	norm := tuner.NewStateNormalizer(metrics.Count)
	// observe folds a sample's metrics into the normalizer and returns its
	// state, or prev when the sample carries no metrics (boot failure).
	observe := func(smp tuner.Sample, prev []float64) []float64 {
		if len(smp.State) != metrics.Count {
			return prev
		}
		norm.Observe(smp.State)
		return append(norm.Normalize(smp.State), features...)
	}

	// Random bootstrap to obtain an initial state.
	var state []float64
	for i := 0; i < initRandom && !s.Exhausted(); i++ {
		smp, err := s.Evaluate(s.Space.Random(rng))
		if err != nil {
			return tuner.Done(err)
		}
		state = observe(smp, state)
	}
	if state == nil {
		state = append(make([]float64, metrics.Count), features...)
	}

	step := 0
	for !s.Exhausted() {
		step++
		if featurize != nil && s.Drifted() {
			// The workload changed under us: re-read its features, once.
			features = featurize(s.Req.Workload)
			featurize = nil
		}
		sigma := noiseStart + (noiseEnd-noiseStart)*min(1, float64(step)/float64(decaySteps))
		action := agent.ActNoisy(state, sigma)
		smp, err := s.Evaluate(action)
		next := observe(smp, state)
		agent.Observe(ddpg.Transition{
			State:  state,
			Action: action,
			Reward: s.Fitness(smp.Perf),
			Next:   next,
			Done:   err != nil,
		})
		for k := 0; k < trainPerStep; k++ {
			agent.TrainStep()
		}
		s.ChargeModelUpdate()
		state = next
		if err != nil {
			return tuner.Done(err)
		}
	}
	return nil
}
