// Package qtune implements the QTune baseline (Li et al., VLDB '19):
// DS-DDPG, a query-aware double-state DDPG. QTune featurizes the workload
// (its query/ transaction mix) and feeds those features alongside the
// database metrics into the DRL state, letting the policy condition on
// what the workload does rather than only on how the database reacts.
package qtune

import (
	"errors"

	"github.com/hunter-cdb/hunter/internal/metrics"
	"github.com/hunter-cdb/hunter/internal/ml/ddpg"
	"github.com/hunter-cdb/hunter/internal/tuner"
	"github.com/hunter-cdb/hunter/internal/workload"
)

// Query featurization (QTune's "query2vec" at transaction granularity):
// per-class features for up to maxClasses transaction types plus workload
// aggregates.
const (
	maxClasses         = 5 // TPC-C has five transaction types
	perClassFeatures   = 4 // weight share, reads, writes, scan rows
	workloadFeatureDim = maxClasses*perClassFeatures + 4
)

// The reference settings: random warm-up steps, the exploration-noise
// schedule and the minibatch updates per sample, as in CDBTune but with a
// shorter noise horizon. The noise bounds are typed so that
// noiseEnd-noiseStart rounds to float64 like run-time math.
const (
	initRandom                   = 8
	noiseStart, noiseEnd float64 = 0.5, 0.05
	noiseDecaySteps              = 650
	trainPerStep                 = 4
)

// Tuner is the DS-DDPG tuner.
type Tuner struct{}

// New returns a QTune tuner.
func New() *Tuner { return &Tuner{} }

// Name implements tuner.Tuner.
func (t *Tuner) Name() string { return "QTune" }

// Featurize encodes the workload's query mix: one feature block per
// transaction class (the vectorized queries QTune conditions on) plus
// aggregate workload descriptors.
func Featurize(p *workload.Profile) []float64 {
	out := make([]float64, 0, workloadFeatureDim)
	var totalW float64
	for _, c := range p.Mix {
		totalW += c.Weight
	}
	for i := 0; i < maxClasses; i++ {
		if i >= len(p.Mix) {
			out = append(out, 0, 0, 0, 0)
			continue
		}
		c := p.Mix[i]
		out = append(out,
			c.Weight/totalW,
			float64(c.PointReads)/50,
			float64(c.PointWrites)/50,
			float64(c.ScanRows)/500,
		)
	}
	out = append(out,
		float64(p.EffectiveThreads())/512,
		p.Skew-1,
		p.WriteFraction(),
		float64(p.Tables)/256,
	)
	return out
}

// Tune implements tuner.Tuner.
func (t *Tuner) Tune(s *tuner.Session) error {
	dim := s.Space.Dim()
	rng := s.RNG.Fork()
	stateDim := metrics.Count + workloadFeatureDim
	agent, err := ddpg.New(ddpg.Config{StateDim: stateDim, ActionDim: dim, Seed: rng.Int63()})
	if err != nil {
		return err
	}
	norm := tuner.NewStateNormalizer(metrics.Count)
	wf := Featurize(s.Req.Workload)
	compose := func(metricState []float64) []float64 {
		out := make([]float64, 0, stateDim)
		out = append(out, metricState...)
		out = append(out, wf...)
		return out
	}

	var metricState []float64
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
			metricState = norm.Normalize(smp.State)
		}
	}
	if metricState == nil {
		metricState = make([]float64, metrics.Count)
	}
	state := compose(metricState)

	step := 0
	refeaturized := false
	for !s.Exhausted() {
		step++
		if s.Drifted() && !refeaturized {
			// The workload changed under us: re-vectorize the queries.
			wf = Featurize(s.Req.Workload)
			refeaturized = true
		}
		frac := float64(step) / float64(noiseDecaySteps)
		if frac > 1 {
			frac = 1
		}
		sigma := noiseStart + (noiseEnd-noiseStart)*frac
		action := agent.ActNoisy(state, sigma)
		smp, err := s.Evaluate(action)
		var next []float64
		if len(smp.State) == metrics.Count {
			norm.Observe(smp.State)
			next = compose(norm.Normalize(smp.State))
		} else {
			next = state
		}
		agent.Observe(ddpg.Transition{State: state, Action: action, Reward: s.Fitness(smp.Perf), Next: next, Done: err != nil})
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
