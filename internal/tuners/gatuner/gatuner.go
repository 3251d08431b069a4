// Package gatuner wraps the genetic algorithm as a standalone tuning
// method — the "GA" line of Figures 4 and 5, which motivates HUNTER's
// hybrid design: GA converges fast early but its performance ceiling is
// below DDPG's.
package gatuner

import (
	"github.com/hunter-cdb/hunter/internal/ga"
	"github.com/hunter-cdb/hunter/internal/tuner"
)

// Tuner runs the GA of §3.1 until the budget is exhausted.
type Tuner struct {
	PopSize      int
	MutationProb float64
}

// New returns a GA tuner with the Sample Factory's settings.
func New() *Tuner { return &Tuner{PopSize: 20, MutationProb: 0.1} }

// Name implements tuner.Tuner.
func (t *Tuner) Name() string { return "GA" }

// Tune implements tuner.Tuner.
func (t *Tuner) Tune(s *tuner.Session) error {
	g, err := ga.New(ga.Config{
		Dim:          s.Space.Dim(),
		PopSize:      t.PopSize,
		MutationProb: t.MutationProb,
		Seed:         s.RNG.Int63(),
	})
	if err != nil {
		return err
	}
	for !s.Exhausted() {
		genes := g.Ask(t.PopSize)
		samples, err := s.EvaluateBatch(genes)
		fit := make([]float64, len(samples))
		evaluated := make([][]float64, len(samples))
		for i, smp := range samples {
			evaluated[i] = smp.Point
			fit[i] = s.Fitness(smp.Perf)
		}
		if len(evaluated) > 0 {
			if terr := g.Tell(evaluated, fit); terr != nil {
				return terr
			}
			s.ChargeModelUpdate()
		}
		if err != nil {
			return tuner.Done(err)
		}
	}
	return nil
}
