// Package qtune implements the QTune baseline (Li et al., VLDB '19):
// DS-DDPG, a query-aware double-state DDPG. QTune featurizes the workload
// (its query/ transaction mix) and feeds those features alongside the
// database metrics into the DRL state, letting the policy condition on
// what the workload does rather than only on how the database reacts.
package qtune

import (
	"github.com/hunter-cdb/hunter/internal/tuner"
	"github.com/hunter-cdb/hunter/internal/tuners/cdbtune"
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

// noiseDecaySteps is QTune's exploration-noise horizon, shorter than
// CDBTune's.
const noiseDecaySteps = 650

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

// Tune implements tuner.Tuner: CDBTune's DDPG loop over the metric state
// extended with the workload features.
func (t *Tuner) Tune(s *tuner.Session) error {
	return cdbtune.Run(s, noiseDecaySteps, Featurize)
}
