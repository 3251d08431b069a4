// Package restune implements the ResTune baseline (Zhang et al., SIGMOD
// '21): meta-learning over historical tuning tasks. A library of base
// Gaussian-process models fitted on previously tuned workloads is combined
// with the current task's GP in an RGPE-style weighted ensemble, where
// each base model's weight reflects how well it ranks the observations
// seen so far; acquisition maximizes expected improvement under the
// ensemble. The evaluation protocol starts every method without prior
// knowledge of the *target* workload, so the base tasks here are the
// synthetic histories ResTune would have accumulated from other tenants.
package restune

import (
	"math"

	"github.com/hunter-cdb/hunter/internal/ml/gp"
	"github.com/hunter-cdb/hunter/internal/sim"
	"github.com/hunter-cdb/hunter/internal/tuner"
)

// The reference settings.
const (
	// initSamples is the Latin-hypercube bootstrap size and candidates
	// the acquisition pool size per step.
	initSamples = 6
	candidates  = 400
	// baseTasks is the number of synthetic historical tasks in the meta
	// library.
	baseTasks = 4
	// baseSamples is the number of observations per historical task.
	baseSamples = 40
)

// Tuner is the meta-learning BO tuner.
type Tuner struct{}

// New returns a ResTune tuner.
func New() *Tuner { return &Tuner{} }

// Name implements tuner.Tuner.
func (t *Tuner) Name() string { return "ResTune" }

// buildLibrary synthesizes the historical task library: smooth random
// response surfaces over the same space, standing in for other tenants'
// tuning histories. Some resemble the target task's structure (memory and
// durability knobs matter), some do not — the ensemble weighting must sort
// that out, exactly as in the real system.
func (t *Tuner) buildLibrary(dim int, rng *sim.RNG) []*gp.Model {
	tasks := make([]*gp.Model, 0, baseTasks)
	for k := 0; k < baseTasks; k++ {
		// A random quadratic-ish landscape with a planted optimum.
		opt := make([]float64, dim)
		wgt := make([]float64, dim)
		for d := 0; d < dim; d++ {
			opt[d] = rng.Float64()
			wgt[d] = rng.Float64() * rng.Float64() // few knobs matter
		}
		x := make([][]float64, baseSamples)
		y := make([]float64, baseSamples)
		for i := 0; i < baseSamples; i++ {
			p := make([]float64, dim)
			var loss float64
			for d := 0; d < dim; d++ {
				p[d] = rng.Float64()
				diff := p[d] - opt[d]
				loss += wgt[d] * diff * diff
			}
			x[i] = p
			y[i] = 1 - loss + rng.Gaussian(0, 0.02)
		}
		if m, err := gp.Fit(x, y, gp.Options{}); err == nil {
			tasks = append(tasks, m)
		}
	}
	return tasks
}

// Tune implements tuner.Tuner.
func (t *Tuner) Tune(s *tuner.Session) error {
	dim := s.Space.Dim()
	rng := s.RNG.Fork()
	library := t.buildLibrary(dim, rng)

	if _, err := s.EvaluateBatch(tuner.LatinHypercube(initSamples, dim, rng)); err != nil {
		return tuner.Done(err)
	}

	for !s.Exhausted() {
		x, y, inc := tuner.FitnessData(s)
		target, err := gp.Fit(x, y, gp.Options{})
		if err != nil {
			if _, err := s.Evaluate(s.Space.Random(rng)); err != nil {
				return tuner.Done(err)
			}
			continue
		}
		s.ChargeModelUpdate()

		// RGPE weights: pairwise ranking accuracy of each model on the
		// target observations; the target model gets the weight of its
		// own (loo-optimistic) accuracy.
		weights := t.ensembleWeights(library, target, x, y)

		incumbent, best := x[inc], y[inc]
		bestEI, bestCand := -1.0, incumbent
		for c := 0; c < candidates; c++ {
			var cand []float64
			if c%2 == 0 {
				cand = s.Space.Random(rng)
			} else {
				cand = tuner.PerturbPoint(incumbent, 0.15, rng)
			}
			ei := weights[len(library)] * target.ExpectedImprovement(cand, best)
			for k, m := range library {
				if weights[k] > 0.01 {
					ei += weights[k] * m.ExpectedImprovement(cand, best)
				}
			}
			if ei > bestEI {
				bestEI, bestCand = ei, cand
			}
		}
		if _, err := s.Evaluate(bestCand); err != nil {
			return tuner.Done(err)
		}
	}
	return nil
}

// ensembleWeights returns one weight per base task plus the target model's
// weight in the last slot, normalized to sum to 1.
func (t *Tuner) ensembleWeights(library []*gp.Model, target *gp.Model, x [][]float64, y []float64) []float64 {
	n := len(x)
	score := make([]float64, len(library)+1)
	pairs := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n && j < i+8; j++ { // bounded pair sampling
			pairs++
			for k, m := range library {
				mi, _ := m.Predict(x[i])
				mj, _ := m.Predict(x[j])
				if (mi > mj) == (y[i] > y[j]) {
					score[k]++
				}
			}
			mi, _ := target.Predict(x[i])
			mj, _ := target.Predict(x[j])
			if (mi > mj) == (y[i] > y[j]) {
				score[len(library)]++
			}
		}
	}
	if pairs == 0 {
		w := make([]float64, len(score))
		w[len(score)-1] = 1
		return w
	}
	var total float64
	for k := range score {
		// Emphasize models clearly better than random ranking.
		score[k] = math.Max(0, score[k]/float64(pairs)-0.5)
		total += score[k]
	}
	if total == 0 {
		w := make([]float64, len(score))
		w[len(score)-1] = 1
		return w
	}
	for k := range score {
		score[k] /= total
	}
	return score
}
