// Durable-checkpoint support for the hybrid tuner: the phase machine's
// state is serialized into the checkpoint's algorithm section at every
// wave boundary, and ResumeTune reconstructs the machine — mid-phase,
// mid-loop — so the continued run is bit-identical to one that was never
// interrupted.
package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"

	"github.com/hunter-cdb/hunter/internal/checkpoint"
	"github.com/hunter-cdb/hunter/internal/knob"
	"github.com/hunter-cdb/hunter/internal/ml/ddpg"
	"github.com/hunter-cdb/hunter/internal/ml/pca"
	"github.com/hunter-cdb/hunter/internal/sim"
	"github.com/hunter-cdb/hunter/internal/tuner"
)

// Phases of the tuning workflow (§2.1).
const (
	phaseFactory = iota
	phaseExplore
)

// optState is the Search Space Optimizer in durable form: the PCA model,
// the normalizer statistics, and the narrowing inputs (sifted names plus
// pinned base) from which the exact space is rebuilt.
type optState struct {
	PCA      []byte // nested pca snapshot; nil when PCA was disabled
	Norm     tuner.NormalizerState
	Narrowed bool
	Top      []string
	Base     knob.Config // nil when no base was pinned
	Ranking  []string
}

// algoState is the whole phase machine.
type algoState struct {
	Phase     int
	FirstPass bool
	Diag      diagnostics
	Factory   *factoryState
	Opt       *optState
	Rec       *recState
}

// state exports the optimizer for the algorithm checkpoint section.
func (o *spaceOptimizer) exportState() (*optState, error) {
	st := &optState{
		Norm:     o.norm.State(),
		Narrowed: o.top != nil,
		Top:      o.top,
		Base:     o.base,
		Ranking:  o.ranking,
	}
	if o.pcaModel != nil {
		var buf bytes.Buffer
		if err := o.pcaModel.SnapshotTo(&buf); err != nil {
			return nil, err
		}
		st.PCA = buf.Bytes()
	}
	return st, nil
}

// resumeOptimizer rebuilds the optimizer without touching the pool or the
// session RNG: the PCA model is restored rather than refit, and the
// narrowed space is rebuilt from the recorded sift result.
func resumeOptimizer(s *tuner.Session, st *optState) (*spaceOptimizer, error) {
	if st == nil {
		return nil, fmt.Errorf("core: checkpoint is missing the optimizer state")
	}
	norm, err := tuner.RestoreStateNormalizer(st.Norm)
	if err != nil {
		return nil, err
	}
	o := &spaceOptimizer{s: s, space: s.Space, norm: norm, ranking: st.Ranking}
	if st.PCA != nil {
		o.pcaModel = &pca.Model{}
		if err := o.pcaModel.RestoreFrom(bytes.NewReader(st.PCA)); err != nil {
			return nil, fmt.Errorf("core: restoring PCA model: %w", err)
		}
	}
	if st.Narrowed {
		narrowed, err := s.Space.Narrow(st.Top)
		if err != nil {
			return nil, fmt.Errorf("core: rebuilding narrowed space: %w", err)
		}
		if st.Base != nil {
			narrowed = narrowed.WithBase(st.Base)
		}
		o.space = narrowed
		o.top = st.Top
		o.base = st.Base
	}
	return o, nil
}

// exportState copies the recommender's state for the algorithm checkpoint
// section and adds the agent and RNG snapshots.
func (r *recommender) exportState() (*recState, error) {
	var buf bytes.Buffer
	if err := r.agent.SnapshotTo(&buf); err != nil {
		return nil, err
	}
	st := r.st
	st.Agent = buf.Bytes()
	st.RNG = r.rng.State()
	return &st, nil
}

// resumeRecommender rebuilds a recommender mid-exploration. Unlike
// newRecommender it neither forks the session RNG nor replays the pool
// (the restored agent already contains the warm-start and everything
// learned since), so the RNG streams stay exactly where the original run
// left them.
func resumeRecommender(opts Options, s *tuner.Session, opt *spaceOptimizer, st *recState) (*recommender, error) {
	if st == nil {
		return nil, fmt.Errorf("core: checkpoint is missing the recommender state")
	}
	agent := &ddpg.Agent{}
	if err := agent.RestoreFrom(bytes.NewReader(st.Agent)); err != nil {
		return nil, fmt.Errorf("core: restoring DDPG agent: %w", err)
	}
	rng := sim.NewRNG(0)
	if err := rng.SetState(st.RNG); err != nil {
		return nil, err
	}
	if len(st.State) != opt.StateDim() {
		return nil, fmt.Errorf("core: checkpoint state dim %d != optimizer %d", len(st.State), opt.StateDim())
	}
	if sd, ad := agent.Dims(); sd != opt.StateDim() || ad != opt.Space().Dim() {
		return nil, fmt.Errorf("core: checkpoint agent dims (%d,%d) != optimizer (%d,%d)", sd, ad, opt.StateDim(), opt.Space().Dim())
	}
	r := &recommender{
		opts:    opts,
		s:       s,
		opt:     opt,
		agent:   agent,
		rng:     rng,
		st:      *st,
		resumed: true,
	}
	r.st.Agent, r.st.RNG = nil, sim.RNGState{}
	return r, nil
}

// machine is the live phase machine handed to tuner.Session as the
// algorithm snapshotter: whenever the session decides a checkpoint is due,
// the machine serializes whatever phase is currently running.
type machine struct {
	h         *Hunter
	phase     int
	firstPass bool
	factory   *sampleFactory
	opt       *spaceOptimizer
	rec       *recommender
}

// SnapshotTo implements checkpoint.Snapshotter.
func (m *machine) SnapshotTo(w io.Writer) error {
	st := algoState{Phase: m.phase, FirstPass: m.firstPass, Diag: m.h.diag}
	var err error
	switch m.phase {
	case phaseFactory:
		if st.Factory, err = m.factory.exportState(); err != nil {
			return err
		}
	case phaseExplore:
		if st.Opt, err = m.opt.exportState(); err != nil {
			return err
		}
		if st.Rec, err = m.rec.exportState(); err != nil {
			return err
		}
	}
	return gob.NewEncoder(w).Encode(st)
}

// ResumeTune continues a tuning run from the algorithm section of a
// session checkpoint (the file returned by tuner.ResumeSession). The
// continued run is bit-identical to one that was never interrupted.
func (h *Hunter) ResumeTune(s *tuner.Session, f *checkpoint.File) error {
	if f == nil || !f.Has(tuner.SectionAlgo) {
		return fmt.Errorf("core: checkpoint has no algorithm section to resume from")
	}
	raw, err := f.Bytes(tuner.SectionAlgo)
	if err != nil {
		return err
	}
	var st algoState
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&st); err != nil {
		return fmt.Errorf("core: decoding algorithm state: %w", err)
	}
	return h.run(s, &st)
}
