// Package ottertune implements the OtterTune baseline (Van Aken et al.,
// SIGMOD '17): Gaussian-process regression over observed configurations
// with expected-improvement acquisition, plus Lasso-based knob ranking
// that grows the tuned knob set incrementally — the pipeline method the
// paper contrasts with HUNTER's RF sifting and hybrid search.
package ottertune

import (
	"github.com/hunter-cdb/hunter/internal/ml/gp"
	"github.com/hunter-cdb/hunter/internal/ml/lasso"
	"github.com/hunter-cdb/hunter/internal/tuner"
)

// The reference settings.
const (
	// initSamples is the Latin-hypercube bootstrap size.
	initSamples = 10
	// candidates is the acquisition pool size per step.
	candidates = 400
)

// knobSchedule grows the number of active knobs as observations
// accumulate (OtterTune's incremental knob method).
var knobSchedule = [...]int{4, 8, 16, 32, 64}

// Tuner is the OtterTune pipeline.
type Tuner struct{}

// New returns an OtterTune tuner.
func New() *Tuner { return &Tuner{} }

// Name implements tuner.Tuner.
func (t *Tuner) Name() string { return "OtterTune" }

// Tune implements tuner.Tuner.
func (t *Tuner) Tune(s *tuner.Session) error {
	dim := s.Space.Dim()
	rng := s.RNG.Fork()

	// Bootstrap with Latin-hypercube samples.
	if _, err := s.EvaluateBatch(tuner.LatinHypercube(initSamples, dim, rng)); err != nil {
		return tuner.Done(err)
	}

	step := 0
	for !s.Exhausted() {
		step++
		x, y, best := tuner.FitnessData(s)

		// Lasso knob ranking; only the top knobs vary, the rest stay at
		// the incumbent's values.
		active := t.activeKnobs(step)
		if active > dim {
			active = dim
		}
		ranking := make([]int, dim)
		for i := range ranking {
			ranking[i] = i
		}
		if lm, err := lasso.Fit(x, y, 0.01, 150); err == nil {
			ranking = lm.Ranking()
		}
		activeSet := make(map[int]bool, active)
		for _, k := range ranking[:active] {
			activeSet[k] = true
		}

		model, err := gp.Fit(x, y, gp.Options{})
		if err != nil {
			// Degenerate kernel: fall back to a random probe.
			if _, err := s.Evaluate(s.Space.Random(rng)); err != nil {
				return tuner.Done(err)
			}
			s.ChargeModelUpdate()
			continue
		}
		s.ChargeModelUpdate()

		// Acquisition: EI over random candidates plus local perturbations
		// of the incumbent. Only the active knobs vary; the rest stay at
		// their defaults, per OtterTune's incremental-knob design.
		incumbent := x[best]
		defaults := s.Space.DefaultPoint()
		bestEI, bestCand := -1.0, incumbent
		for c := 0; c < candidates; c++ {
			var cand []float64
			if c%3 != 0 {
				cand = s.Space.Random(rng)
			} else {
				cand = tuner.PerturbPoint(incumbent, 0.15, rng)
			}
			for d := 0; d < dim; d++ {
				if !activeSet[d] {
					cand[d] = defaults[d]
				}
			}
			if ei := model.ExpectedImprovement(cand, y[best]); ei > bestEI {
				bestEI, bestCand = ei, cand
			}
		}
		if _, err := s.Evaluate(bestCand); err != nil {
			return tuner.Done(err)
		}
	}
	return nil
}

func (t *Tuner) activeKnobs(step int) int {
	idx := step / 12 // grow the knob set every 12 observations
	if idx >= len(knobSchedule) {
		idx = len(knobSchedule) - 1
	}
	return knobSchedule[idx]
}
