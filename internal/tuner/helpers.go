package tuner

import (
	"fmt"
	"math"

	"github.com/hunter-cdb/hunter/internal/sim"
)

// LatinHypercube draws n points in [0,1]^dim with one sample per stratum
// in every dimension — the initial sampling of BestConfig and OtterTune.
func LatinHypercube(n, dim int, rng *sim.RNG) [][]float64 {
	if n <= 0 || dim <= 0 {
		return nil
	}
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, dim)
	}
	for d := 0; d < dim; d++ {
		perm := rng.Perm(n)
		for i := 0; i < n; i++ {
			out[i][d] = (float64(perm[i]) + rng.Float64()) / float64(n)
		}
	}
	return out
}

// fitnessDataCap bounds a GP training set, whose fit costs n³: a larger
// pool is cut to its fitnessDataCap/2 fittest samples followed by its
// fitnessDataCap/2 most recent ones.
const fitnessDataCap = 240

// FitnessData returns the GP training set of OtterTune and ResTune: the
// pooled sample points x with their Eq. 1 fitness y, capped at
// fitnessDataCap samples, and best, the index of the incumbent (the first
// maximum of y).
func FitnessData(s *Session) (x [][]float64, y []float64, best int) {
	all := s.Pool.All()
	if len(all) > fitnessDataCap {
		half := fitnessDataCap / 2
		sorted := s.Pool.SortedByFitness(s.DefaultPerf, s.Alpha)
		all = append(append([]Sample(nil), sorted[:half]...), all[len(all)-half:]...)
	}
	x = make([][]float64, len(all))
	y = make([]float64, len(all))
	for i, smp := range all {
		x[i] = smp.Point
		y[i] = s.Fitness(smp.Perf)
		if y[i] > y[best] {
			best = i
		}
	}
	return x, y, best
}

// StateNormalizer standardizes metric vectors online with running
// mean/variance (Welford), so DRL tuners see comparably scaled states from
// the first step.
type StateNormalizer struct {
	n    int
	mean []float64
	m2   []float64
}

// NewStateNormalizer creates a normalizer for dim-dimensional states.
func NewStateNormalizer(dim int) *StateNormalizer {
	return &StateNormalizer{mean: make([]float64, dim), m2: make([]float64, dim)}
}

// Observe folds a raw state into the running statistics.
func (s *StateNormalizer) Observe(x []float64) {
	s.n++
	for i := range s.mean {
		d := x[i] - s.mean[i]
		s.mean[i] += d / float64(s.n)
		s.m2[i] += d * (x[i] - s.mean[i])
	}
}

// Normalize returns the standardized copy of x under current statistics.
func (s *StateNormalizer) Normalize(x []float64) []float64 {
	out := make([]float64, len(s.mean))
	for i := range out {
		sd := 1.0
		if s.n > 1 {
			sd = math.Sqrt(s.m2[i] / float64(s.n-1))
			if sd < 1e-9 {
				sd = 1
			}
		}
		v := x[i]
		if i < len(x) {
			v = (v - s.mean[i]) / sd
		}
		out[i] = sim.Clamp(v, -5, 5)
	}
	return out
}

// NormalizerState is a StateNormalizer's durable state (checkpointing).
type NormalizerState struct {
	N    int
	Mean []float64
	M2   []float64
}

// State exports the running statistics.
func (s *StateNormalizer) State() NormalizerState {
	return NormalizerState{
		N:    s.n,
		Mean: append([]float64(nil), s.mean...),
		M2:   append([]float64(nil), s.m2...),
	}
}

// RestoreStateNormalizer rebuilds a normalizer from exported statistics.
func RestoreStateNormalizer(st NormalizerState) (*StateNormalizer, error) {
	if len(st.Mean) != len(st.M2) {
		return nil, fmt.Errorf("tuner: normalizer state has %d means, %d variances", len(st.Mean), len(st.M2))
	}
	return &StateNormalizer{
		n:    st.N,
		mean: append([]float64(nil), st.Mean...),
		m2:   append([]float64(nil), st.M2...),
	}, nil
}

// PerturbPoint returns p with Gaussian noise of width sigma, clipped to
// the unit cube.
func PerturbPoint(p []float64, sigma float64, rng *sim.RNG) []float64 {
	out := make([]float64, len(p))
	for i := range p {
		out[i] = sim.Clamp(p[i]+rng.Gaussian(0, sigma), 0, 1)
	}
	return out
}
