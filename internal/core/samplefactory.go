package core

import (
	"bytes"
	"fmt"
	"math"
	"time"

	"github.com/hunter-cdb/hunter/internal/checkpoint"
	"github.com/hunter-cdb/hunter/internal/ga"
	"github.com/hunter-cdb/hunter/internal/telemetry"
	"github.com/hunter-cdb/hunter/internal/tuner"
)

// sampleFactory is the first phase (§3.1): it fills the Shared Pool with
// high-quality samples. Per the workflow of §2.1, each Actor first
// stress-tests random configurations; the GA then breeds new generations
// from the evaluated population until the pool reaches its target size or
// fitness stops improving.
//
// The loop state lives on the struct so a checkpoint taken at a
// generation boundary can resume the phase exactly where it stopped.
type sampleFactory struct {
	opts Options
	s    *tuner.Session

	g       *ga.GA // nil when GA is disabled
	st      factoryState
	resumed bool

	// Per-generation Tell buffers, reused across the GA loop.
	fit []float64
	pts [][]float64
}

func newSampleFactory(opts Options, s *tuner.Session) *sampleFactory {
	return &sampleFactory{opts: opts, s: s, st: factoryState{BestFit: math.Inf(-1)}}
}

// popSize returns the generation size: independent of the parallelism
// degree (the session splits each generation into waves across the
// clones), except that very wide fleets fill every clone in one wave.
func (f *sampleFactory) popSize() int {
	n := 20
	if len(f.s.Clones) > n {
		n = len(f.s.Clones)
	}
	return n
}

// ensureGA lazily creates the GA (consuming one seed draw from the
// session RNG). A resumed factory restores the GA instead, so the draw
// happens exactly once per run.
func (f *sampleFactory) ensureGA() error {
	if f.g != nil || f.opts.DisableGA {
		return nil
	}
	g, err := ga.New(ga.Config{
		Dim:     f.s.Space.Dim(),
		PopSize: f.popSize(),
		Seed:    f.s.RNG.Int63(),
	})
	if err != nil {
		return err
	}
	f.g = g
	return nil
}

// Run executes phase 1, calling barrier at every generation boundary —
// the algorithm-safe points where a checkpoint can be taken. With GA
// disabled (ablation or HER warm-up) the pool is filled with random
// samples instead.
func (f *sampleFactory) Run(barrier checkpoint.Snapshotter) error {
	s, st := f.s, &f.st
	if !f.resumed {
		st.PhaseStart = s.Clock.Now()
	}
	s.EnterPhase("sample_factory")
	if s.Trace != nil {
		sp := s.Trace.StartAt("sample_factory", st.PhaseStart)
		defer func() { sp.End(telemetry.A("pool", float64(s.Pool.Len()))) }()
	}
	target := f.opts.SampleTarget

	if f.opts.DisableGA {
		for st.Valid < target && !s.Exhausted() {
			// Re-read the batch width every generation: under an armed
			// chaos plan the clone fleet can shrink (quarantine), and the
			// batch adapts with it.
			popSize := f.popSize()
			n := target - st.Valid
			if n > popSize {
				n = popSize
			}
			batch := make([][]float64, n)
			for i := range batch {
				batch[i] = s.Space.Random(s.RNG)
			}
			samples, err := s.EvaluateBatch(batch)
			for _, smp := range samples {
				if !smp.Perf.Failed {
					st.Valid++
				}
			}
			if err != nil {
				return err
			}
			if err := s.CheckpointBarrier(barrier); err != nil {
				return err
			}
		}
		return nil
	}

	if err := f.ensureGA(); err != nil {
		return err
	}
	for st.Valid < target && !s.Exhausted() {
		popSize := f.popSize() // fleet may shrink under chaos
		n := target - st.Valid
		if n > popSize {
			n = popSize
		}
		genes := f.g.Ask(n)
		samples, eerr := s.EvaluateBatch(genes)
		if cap(f.fit) < len(samples) {
			f.fit = make([]float64, len(samples))
			f.pts = make([][]float64, len(samples))
		}
		fit := f.fit[:len(samples)]
		pts := f.pts[:len(samples)]
		improved := false
		for i, smp := range samples {
			pts[i] = smp.Point
			fit[i] = s.Fitness(smp.Perf)
			if !smp.Perf.Failed {
				st.Valid++
			}
			if fit[i] > st.BestFit {
				st.BestFit = fit[i]
				improved = true
			}
		}
		if len(pts) > 0 {
			if err := f.g.Tell(pts, fit); err != nil {
				return err
			}
			s.ChargeModelUpdate()
		}
		if eerr != nil {
			return eerr
		}
		// Stop early once performance has not improved for an extended
		// period (§2.1) — but only after enough viable samples exist for
		// the Search Space Optimizer to work with.
		if improved {
			st.Stale = 0
		} else if st.Stale++; st.Stale >= f.opts.Patience && st.Valid >= 30 {
			return nil
		}
		if err := s.CheckpointBarrier(barrier); err != nil {
			return err
		}
	}
	return nil
}

// factoryState is the phase's durable loop state. The factory keeps it
// as one value; only the checkpoint copy carries the nested GA snapshot.
type factoryState struct {
	GA      []byte // nested ga snapshot; nil when GA is disabled or not yet built
	BestFit float64
	Stale   int
	Valid   int
	// PhaseStart is the virtual time the phase span opened at; a resumed
	// factory re-opens the span there so the trace matches an
	// uninterrupted run.
	PhaseStart time.Duration
}

// exportState copies the factory's state for the algorithm checkpoint
// section and adds the GA snapshot.
func (f *sampleFactory) exportState() (*factoryState, error) {
	st := f.st
	if f.g != nil {
		var buf bytes.Buffer
		if err := f.g.SnapshotTo(&buf); err != nil {
			return nil, err
		}
		st.GA = buf.Bytes()
	}
	return &st, nil
}

// resumeSampleFactory rebuilds a factory mid-phase. The GA is restored
// from its snapshot rather than re-seeded, so the session RNG stream is
// not consumed a second time.
func resumeSampleFactory(opts Options, s *tuner.Session, st *factoryState) (*sampleFactory, error) {
	if st == nil {
		return nil, fmt.Errorf("core: checkpoint is missing the sample-factory state")
	}
	f := &sampleFactory{opts: opts, s: s, st: *st, resumed: true}
	f.st.GA = nil
	if st.GA != nil {
		f.g = &ga.GA{}
		if err := f.g.RestoreFrom(bytes.NewReader(st.GA)); err != nil {
			return nil, fmt.Errorf("core: restoring sample-factory GA: %w", err)
		}
	}
	return f, nil
}
