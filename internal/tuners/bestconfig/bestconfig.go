// Package bestconfig implements the BestConfig baseline (Zhu et al., SoCC
// '17): the search-based method the paper compares against. It combines
// divide-and-diverge sampling (DDS) — Latin-hypercube samples over the
// current bounds — with recursive bound-and-search (RBS): after each round
// the bounds contract around the best point found; when a round fails to
// improve, the search diverges back to the full space and restarts from a
// fresh sample set.
package bestconfig

import (
	"github.com/hunter-cdb/hunter/internal/sim"
	"github.com/hunter-cdb/hunter/internal/tuner"
)

// The reference settings.
const (
	// roundSize is the number of samples per DDS round.
	roundSize = 16
	// shrink is the bound-contraction factor per improving round.
	shrink = 0.6
	// maxExploit bounds consecutive bound-and-search rounds before a
	// forced divergence round over the whole space (the DDS half of the
	// algorithm keeps global coverage alive).
	maxExploit = 3
)

// Tuner is the BestConfig search.
type Tuner struct{}

// New returns a BestConfig tuner.
func New() *Tuner { return &Tuner{} }

// Name implements tuner.Tuner.
func (t *Tuner) Name() string { return "BestConfig" }

// Tune implements tuner.Tuner.
func (t *Tuner) Tune(s *tuner.Session) error {
	dim := s.Space.Dim()
	rng := s.RNG.Fork()
	center := make([]float64, dim)
	for i := range center {
		center[i] = 0.5
	}
	radius := 0.5
	bestFit := s.Fitness(s.DefaultPerf)
	var bestPoint []float64
	exploitRounds := 0

	for !s.Exhausted() {
		// DDS: Latin-hypercube sample inside the current bounds.
		batch := tuner.LatinHypercube(roundSize, dim, rng)
		for _, p := range batch {
			for d := range p {
				lo := sim.Clamp(center[d]-radius, 0, 1)
				hi := sim.Clamp(center[d]+radius, 0, 1)
				p[d] = lo + p[d]*(hi-lo)
			}
		}
		samples, err := s.EvaluateBatch(batch)
		improved := false
		for _, smp := range samples {
			if f := s.Fitness(smp.Perf); f > bestFit {
				bestFit = f
				bestPoint = smp.Point
				improved = true
			}
		}
		if err != nil {
			return tuner.Done(err)
		}
		if improved && bestPoint != nil && exploitRounds < maxExploit {
			// RBS: contract the bounds around the incumbent.
			copy(center, bestPoint)
			radius *= shrink
			if radius < 0.05 {
				radius = 0.05
			}
			exploitRounds++
		} else {
			// Diverge: restart over the whole space (also forced after
			// MaxExploit rounds so global coverage never dies).
			for i := range center {
				center[i] = 0.5
			}
			radius = 0.5
			exploitRounds = 0
		}
	}
	return nil
}
