// Package core implements HUNTER, the paper's contribution: an online
// hybrid tuning system. The Sample Factory (GA + Rules, §3.1) generates
// high-quality early samples into the Shared Pool; the Search Space
// Optimizer (PCA + RF, §3.2) compresses the metric state and sifts the
// knobs; and the Recommender (DDPG + Fast Exploration Strategy, §3.3)
// warm-starts from the pooled samples and performs the finer-grained final
// exploration. Cloned-CDB parallelism and virtual-time accounting come
// from the session framework in internal/tuner.
package core

import (
	"errors"

	"github.com/hunter-cdb/hunter/internal/tuner"
)

// Options toggle HUNTER's modules — the rows of the ablation Tables 3–5.
// The zero value is full HUNTER.
type Options struct {
	// DisableGA replaces the Sample Factory with random sampling.
	DisableGA bool
	// DisablePCA feeds raw (normalized) metrics to the Recommender.
	DisablePCA bool
	// DisableRF skips knob sifting; the Recommender tunes every knob.
	DisableRF bool
	// DisableFES uses plain Gaussian-noise exploration.
	DisableFES bool
	// HERWarmup warm-starts the DRL model from random samples relabeled
	// by hindsight experience replay instead of GA samples (Table 6). It
	// implies DisableGA for sample generation.
	HERWarmup bool

	// SampleTarget is the Shared Pool size the first phase aims for
	// (paper: 140, Figure 6).
	SampleTarget int
	// Patience stops the first phase early when this many consecutive
	// generations bring no improvement.
	Patience int
	// TopK is the number of knobs kept by RF sifting (paper: 20, Fig 8).
	TopK int
	// PCAVariance is the cumulative-variance target (paper: 0.90 → 91%
	// at 13 components on TPC-C, Figure 7).
	PCAVariance float64

	// Registry enables the online model-reuse scheme (§4): after the
	// Search Space Optimizer runs, a matching historical model is loaded
	// and fine-tuned. The run only reads the registry; the caller commits
	// the trained model (Hunter.Model). Nil disables reuse.
	Registry *ReuseRegistry
	// ReuseTag is this workload's signature in the registry (defaults to
	// the workload name).
	ReuseTag string
}

func (o Options) withDefaults() Options {
	if o.SampleTarget == 0 {
		o.SampleTarget = 140
	}
	if o.Patience == 0 {
		o.Patience = 4
	}
	if o.TopK == 0 {
		o.TopK = 20
	}
	if o.PCAVariance == 0 {
		o.PCAVariance = 0.90
	}
	if o.HERWarmup {
		o.DisableGA = true
	}
	return o
}

// Hunter is the hybrid tuning system.
type Hunter struct {
	opts  Options
	diag  diagnostics
	model *Model
}

// diagnostics record what the last run decided; a checkpoint carries them
// so a resumed run reports the same.
type diagnostics struct {
	Reused   bool     // fine-tuned a historical model
	PCADim   int      // compressed state dimension
	TopKnobs []string // knobs selected for fine tuning
}

// New creates a HUNTER tuner with the given options.
func New(opts Options) *Hunter { return &Hunter{opts: opts.withDefaults()} }

// Name implements tuner.Tuner.
func (h *Hunter) Name() string { return "HUNTER" }

// PCADim reports the compressed state dimension chosen in the last run.
func (h *Hunter) PCADim() int { return h.diag.PCADim }

// TopKnobs reports the knobs the last run selected for fine tuning.
func (h *Hunter) TopKnobs() []string { return append([]string(nil), h.diag.TopKnobs...) }

// Reused reports whether the last run fine-tuned a historical model.
func (h *Hunter) Reused() bool { return h.diag.Reused }

// Model returns the Recommender the last run trained, for the caller to
// commit to the registry. It reports false when no registry was configured
// or the run ended before a Recommender existed.
func (h *Hunter) Model() (Model, bool) {
	if h.model == nil {
		return Model{}, false
	}
	return *h.model, true
}

// signature is the session's key in the registry: ReuseTag, or the name
// of the workload in effect (drift can change it mid-run).
func (h *Hunter) signature(s *tuner.Session) string {
	if h.opts.ReuseTag != "" {
		return h.opts.ReuseTag
	}
	return s.Req.Workload.Name
}

// Tune implements tuner.Tuner: the three-phase workflow of §2.1.
func (h *Hunter) Tune(s *tuner.Session) error { return h.run(s, nil) }

// run drives the phase machine, either from the start (st == nil) or from
// a checkpointed position. The machine m is registered with the session as
// the algorithm snapshotter, so checkpoints taken at wave boundaries
// always carry the live phase state. tuner.ErrStopRequested (the
// stop-after-checkpoint hook) propagates to the caller.
func (h *Hunter) run(s *tuner.Session, st *algoState) error {
	h.diag, h.model = diagnostics{}, nil
	m := &machine{h: h, firstPass: true}
	if st != nil {
		h.diag = st.Diag
		m.firstPass = st.FirstPass
	}

	// Phase 1: Sample Factory fills the Shared Pool.
	if st == nil || st.Phase == phaseFactory {
		var factory *sampleFactory
		var err error
		if st != nil {
			if factory, err = resumeSampleFactory(h.opts, s, st.Factory); err != nil {
				return err
			}
			st = nil
		} else {
			factory = newSampleFactory(h.opts, s)
		}
		m.phase, m.factory = phaseFactory, factory
		if err := factory.Run(m); err != nil {
			return tuner.Done(err)
		}
		m.factory = nil
	}

	// Phases 2 + 3 loop: the Search Space Optimizer compresses metrics
	// and sifts knobs over the current Shared Pool, then the Recommender
	// (DDPG + FES, warm-started from the pool) explores the reduced
	// space. When the Recommender stalls, the optimizer re-runs over the
	// enlarged pool — whose full-space probes let it recover any knob an
	// earlier sifting wrongly dropped — and a fresh warm-started
	// Recommender continues.
	var rec *recommender
	var opt *spaceOptimizer
	m.phase = phaseExplore
	for !s.Exhausted() {
		var err error
		if st != nil {
			// Resuming mid-exploration: both phase-2 artifacts and the
			// mid-loop recommender come from the checkpoint; nothing is
			// refit and no RNG stream is consumed.
			if opt, err = resumeOptimizer(s, st.Opt); err != nil {
				return err
			}
			if rec, err = resumeRecommender(h.opts, s, opt, st.Rec); err != nil {
				return err
			}
			st = nil
		} else {
			newOpt, oerr := optimizeSearchSpace(h.opts, s)
			if oerr != nil {
				if m.firstPass {
					return oerr
				}
				break // keep the results of the earlier passes
			}
			opt = newOpt
			m.firstPass = false

			rec, err = newRecommender(h.opts, s, opt)
			if err != nil {
				return err
			}
			if h.opts.Registry != nil && !h.diag.Reused {
				if donor, ok := h.opts.Registry.Match(h.signature(s), opt.Space().Names(), opt.StateDim()); ok {
					if err := rec.Restore(donor.Snap); err == nil {
						h.diag.Reused = true
					} else {
						// The run goes on cold; the trace records why.
						s.Trace.Event("reuse_restore_failed")
					}
				}
			}
		}
		h.diag.PCADim = opt.StateDim()
		h.diag.TopKnobs = opt.Space().Names()
		m.opt, m.rec = opt, rec

		err = rec.Run(m)
		if errors.Is(err, errStalled) {
			continue
		}
		if err = tuner.Done(err); err != nil {
			return err
		}
		break // budget spent
	}
	if h.opts.Registry != nil && rec != nil && opt != nil {
		sig := h.signature(s)
		h.model = &Model{
			Signature: sig,
			Tag:       sig,
			KnobNames: opt.Space().Names(),
			StateDim:  opt.StateDim(),
			Snap:      rec.Snapshot(),
		}
		if best, ok := s.Best(); ok {
			h.model.Fitness = s.Fitness(best.Perf)
		}
	}
	return nil
}
