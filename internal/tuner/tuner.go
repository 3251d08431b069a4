// Package tuner provides the machinery every tuning method runs on: the
// (S, A, P) sample type, the Shared Pool, the Table 1 step-cost model, and
// the Session — a budgeted tuning run against cloned CDB instances under a
// virtual clock, with parallel stress-testing and best-so-far curve
// recording for the paper's figures.
package tuner

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/hunter-cdb/hunter/internal/knob"
	"github.com/hunter-cdb/hunter/internal/metrics"
	"github.com/hunter-cdb/hunter/internal/simdb"
)

// Sample is one stress-test outcome: state metrics S, configuration A and
// performance P (§2.1).
type Sample struct {
	State metrics.Vector
	Knobs knob.Config
	// Point is A encoded in the session space's normalized coordinates.
	Point []float64
	Perf  simdb.Perf
	Step  int
	Time  time.Duration // virtual time when the sample completed
	// Index is the sample's position in the batch the caller passed to
	// EvaluateConfigs/EvaluateBatch. With a healthy fleet it equals the
	// sample's position in the returned slice; when a degraded wave drops
	// samples it is what lets callers re-associate survivors with the
	// inputs (actions, genes) they came from.
	Index int
}

// SharedPool holds the samples every module reads and writes (Figure 2).
type SharedPool struct {
	mu      sync.RWMutex
	samples []Sample
}

// NewSharedPool returns an empty pool.
func NewSharedPool() *SharedPool { return &SharedPool{} }

// Add appends samples to the pool.
func (p *SharedPool) Add(s ...Sample) {
	p.mu.Lock()
	p.samples = append(p.samples, s...)
	p.mu.Unlock()
}

// Len returns the number of pooled samples.
func (p *SharedPool) Len() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return len(p.samples)
}

// All returns a snapshot of the pool.
func (p *SharedPool) All() []Sample {
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := make([]Sample, len(p.samples))
	copy(out, p.samples)
	return out
}

// SortedByFitness returns samples in descending fitness order.
func (p *SharedPool) SortedByFitness(def simdb.Perf, alpha float64) []Sample {
	out := p.All()
	sort.SliceStable(out, func(i, j int) bool {
		return out[i].Perf.Fitness(def, alpha) > out[j].Perf.Fitness(def, alpha)
	})
	return out
}

// StepCosts is the Table 1 time breakdown of one tuning step.
type StepCosts struct {
	WorkloadExecution   time.Duration
	MetricsCollection   time.Duration
	ModelUpdate         time.Duration
	KnobsDeployment     time.Duration
	KnobsRecommendation time.Duration
}

// DefaultStepCosts returns the measured values of Table 1.
func DefaultStepCosts() StepCosts {
	return StepCosts{
		WorkloadExecution:   time.Duration(142.7 * float64(time.Second)),
		MetricsCollection:   200 * time.Microsecond,
		ModelUpdate:         71 * time.Millisecond,
		KnobsDeployment:     time.Duration(21.3 * float64(time.Second)),
		KnobsRecommendation: time.Duration(2.57 * float64(time.Millisecond)),
	}
}

// StepTotal is the full cost of one sequential tuning step.
func (c StepCosts) StepTotal() time.Duration {
	return c.WorkloadExecution + c.MetricsCollection + c.ModelUpdate +
		c.KnobsDeployment + c.KnobsRecommendation
}

// CurvePoint is one point of a best-so-far performance curve.
type CurvePoint struct {
	Time time.Duration
	Perf simdb.Perf // best performance observed up to Time
	Step int
}

// Curve is a best-so-far trajectory (the lines of Figures 4, 9, 10, 13).
type Curve []CurvePoint

// At returns the best performance at or before t (zero Perf if none).
func (c Curve) At(t time.Duration) (simdb.Perf, bool) {
	var out simdb.Perf
	found := false
	for _, p := range c {
		if p.Time > t {
			break
		}
		out, found = p.Perf, true
	}
	return out, found
}

// Final returns the last point of the curve.
func (c Curve) Final() (CurvePoint, bool) {
	if len(c) == 0 {
		return CurvePoint{}, false
	}
	return c[len(c)-1], true
}

// RecommendationTime returns the earliest virtual time at which the curve
// reached frac (e.g. 0.98) of its final best fitness — the paper's
// "recommendation time". The second return is the step index.
func (c Curve) RecommendationTime(def simdb.Perf, alpha, frac float64) (time.Duration, int) {
	if len(c) == 0 {
		return 0, 0
	}
	final := c[len(c)-1].Perf.Fitness(def, alpha)
	if final <= 0 {
		last := c[len(c)-1]
		return last.Time, last.Step
	}
	for _, p := range c {
		if p.Perf.Fitness(def, alpha) >= frac*final {
			return p.Time, p.Step
		}
	}
	last := c[len(c)-1]
	return last.Time, last.Step
}

// TimeToFitness returns the earliest virtual time at which the curve
// reached the target fitness, for cross-method comparisons ("HUNTER
// reaches similar optimal throughput N× faster", §6.1). The bool reports
// whether the target was ever reached.
func (c Curve) TimeToFitness(def simdb.Perf, alpha, target float64) (time.Duration, bool) {
	for _, p := range c {
		if p.Perf.Fitness(def, alpha) >= target {
			return p.Time, true
		}
	}
	return 0, false
}

// ErrBudgetExhausted signals that the session's time budget is spent.
var ErrBudgetExhausted = fmt.Errorf("tuner: time budget exhausted")

// Done is the stop rule of every tuning loop: an exhausted budget ends
// the run normally (nil); any other error passes through.
func Done(err error) error {
	if errors.Is(err, ErrBudgetExhausted) {
		return nil
	}
	return err
}

// ErrFleetLost signals that every cloned CDB has crashed or been
// quarantined: the session cannot stress-test anything anymore, and the
// caller should fall back to the user instance's baseline configuration.
var ErrFleetLost = fmt.Errorf("tuner: entire clone fleet lost")

// ErrSampleLost signals that a single-point evaluation lost its sample to
// an infrastructure fault (the wave completed degraded, with nothing to
// return) rather than to a hard error.
var ErrSampleLost = fmt.Errorf("tuner: sample lost to an infrastructure fault")
