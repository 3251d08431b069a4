package core

import (
	"fmt"
	"math"
	"sort"
	"time"

	"github.com/hunter-cdb/hunter/internal/checkpoint"
	"github.com/hunter-cdb/hunter/internal/knob"
	"github.com/hunter-cdb/hunter/internal/metrics"
	"github.com/hunter-cdb/hunter/internal/ml/ddpg"
	"github.com/hunter-cdb/hunter/internal/sim"
	"github.com/hunter-cdb/hunter/internal/telemetry"
	"github.com/hunter-cdb/hunter/internal/tuner"
)

// recommender is the third phase (§3.3): DDPG over the reduced state and
// action spaces, warm-started from the Shared Pool and driven by the Fast
// Exploration Strategy.
type recommender struct {
	opts  Options
	s     *tuner.Session
	opt   *spaceOptimizer
	agent *ddpg.Agent
	rng   *sim.RNG

	st      recState
	resumed bool
}

// recState is the Recommender's durable exploration state. The
// recommender keeps it as one value; only the checkpoint copy carries the
// nested agent snapshot (networks, optimizer moments, replay buffer,
// internal RNG) and the recommender's own forked RNG mid-stream.
type recState struct {
	Agent      []byte
	RNG        sim.RNGState
	BestAction []float64
	BestFit    float64
	State      []float64
	Steps      int
	// Stagnation counts waves without improvement; exploration widens
	// when the search stalls and tightens again on progress.
	Stagnation int
	// Wave numbers the exploration waves (Wave%5 schedules the periodic
	// full-space probe).
	Wave int
	// PhaseStart is the virtual time the phase span opened at; a resumed
	// recommender re-opens the span there so the trace matches an
	// uninterrupted run.
	PhaseStart time.Duration
}

func newRecommender(opts Options, s *tuner.Session, opt *spaceOptimizer) (*recommender, error) {
	rng := s.RNG.Fork()
	agent, err := ddpg.New(ddpg.Config{
		StateDim:  opt.StateDim(),
		ActionDim: opt.Space().Dim(),
		Seed:      rng.Int63(),
	})
	if err != nil {
		return nil, err
	}
	r := &recommender{
		opts:  opts,
		s:     s,
		opt:   opt,
		agent: agent,
		rng:   rng,
		st:    recState{BestFit: math.Inf(-1), State: make([]float64, opt.StateDim())},
	}
	r.warmStart()
	return r, nil
}

// warmStart replays the Shared Pool into the agent's experience buffer —
// the key design decision of the hybrid architecture — and pre-trains on
// it so the policy starts from the GA's knowledge instead of from scratch.
func (r *recommender) warmStart() {
	var pretrained int
	r.s.EnterPhase("ddpg_warm_start")
	if r.s.Trace != nil {
		sp := r.s.Trace.Start("ddpg_warm_start")
		defer func() {
			sp.End(telemetry.A("pool", float64(r.s.Pool.Len())),
				telemetry.A("train_steps", float64(pretrained)))
		}()
	}
	samples := r.s.Pool.All()
	sort.SliceStable(samples, func(i, j int) bool { return samples[i].Step < samples[j].Step })

	var episode []ddpg.Transition
	prev := make([]float64, r.opt.StateDim())
	for _, smp := range samples {
		state := prev
		next := r.opt.CompressState(smp.State)
		action := r.opt.EncodeAction(smp.Knobs)
		fit := r.s.Fitness(smp.Perf)
		episode = append(episode, ddpg.Transition{
			State:  state,
			Action: action,
			Reward: fit,
			Next:   next,
			Done:   smp.Perf.Failed,
		})
		if len(smp.State) == metrics.Count {
			prev = next
			r.st.State = next
		}
		if fit > r.st.BestFit {
			r.st.BestFit = fit
			r.st.BestAction = action
		}
	}
	if r.opts.HERWarmup {
		episode = append(episode, ddpg.HERRelabel(episode)...)
	}
	for _, t := range episode {
		r.agent.Observe(t)
	}
	// Pre-train: a pass of minibatch updates over the warm buffer.
	pretrain := 4 * len(episode)
	if pretrain > 600 {
		pretrain = 600
	}
	for i := 0; i < pretrain; i++ {
		r.agent.TrainStep()
	}
	pretrained = pretrain
	if len(episode) > 0 {
		r.s.ChargeModelUpdate()
	}
}

// fes implements the Fast Exploration Strategy (Eq. 4–7): early steps
// mostly re-explore around the best-known action (A_best plus a random
// value); P(A_c) starts at 0.3 and rises monotonically toward a ceiling
// below 1, so some best-centered refinement persists throughout — the
// "explore based on relatively better configurations" behaviour. The
// refinement radius anneals as the search matures.
func (r *recommender) fes(action []float64) []float64 {
	if r.opts.DisableFES || r.st.BestAction == nil {
		return action
	}
	pc := 1 - 0.7*math.Exp(-float64(r.st.Steps)/45)
	if pc > 0.88 {
		pc = 0.88
	}
	if r.rng.Float64() < pc {
		return action
	}
	return tuner.PerturbPoint(r.st.BestAction, r.refineRadius(), r.rng)
}

// refineRadius is the A_best perturbation width: it anneals with progress
// and widens again when the search stagnates.
func (r *recommender) refineRadius() float64 {
	rad := 0.03 + 0.09*math.Exp(-float64(r.st.Steps)/350)
	if r.st.Stagnation > 12 {
		rad *= 1 + 0.1*float64(r.st.Stagnation-12)
		if rad > 0.3 {
			rad = 0.3
		}
	}
	return rad
}

// errStalled signals that the recommender has stopped improving; the
// orchestrator responds by re-running the Search Space Optimizer over the
// enlarged Shared Pool and warm-starting a fresh recommender.
var errStalled = fmt.Errorf("core: recommender stalled")

// stallLimit is the number of consecutive improvement-free waves before
// the recommender reports a stall.
const stallLimit = 40

// Run drives the exploration loop until the session budget is exhausted
// or the search stalls, calling barrier at every wave boundary — the
// algorithm-safe points where a checkpoint can be taken. Each iteration
// proposes one action per cloned CDB (the parallel scheme), stress-tests
// the wave, and trains on the observed transitions. Waves periodically
// include a full-space probe — a perturbation of the best known
// configuration across *all* tuned knobs, not only the sifted top-k —
// whose samples let a later re-optimization recover any knob the sifting
// wrongly dropped.
func (r *recommender) Run(barrier checkpoint.Snapshotter) error {
	s, st := r.s, &r.st
	if !r.resumed {
		st.PhaseStart = s.Clock.Now()
	}
	s.EnterPhase("ddpg_explore")
	if s.Trace != nil {
		sp := s.Trace.StartAt("ddpg_explore", st.PhaseStart)
		defer func() { sp.End(telemetry.A("steps", float64(st.Steps))) }()
	}
	space := r.opt.Space()
	for !s.Exhausted() {
		st.Wave++
		n := len(s.Clones)
		actions := make([][]float64, n)
		wideSlot := -1
		if n >= 4 || st.Wave%5 == 0 {
			wideSlot = n - 1
		}
		for i := range actions {
			if i == wideSlot {
				actions[i] = nil // filled below in the full space
				continue
			}
			st.Steps++
			sigma := 0.30*math.Exp(-float64(st.Steps)/180) + 0.04
			switch {
			case i == 0:
				// The wave leader follows the policy (with FES early on).
				actions[i] = r.fes(r.agent.ActNoisy(st.State, sigma))
			case i%3 == 1 && st.BestAction != nil:
				// Local refinement around the incumbent at varied radii,
				// so a wide wave covers several exploration scales.
				actions[i] = tuner.PerturbPoint(st.BestAction, 0.04+0.05*float64(i%5), r.rng)
			case i%7 == 6:
				// Occasional global restart keeps the wave from
				// collapsing onto one basin.
				actions[i] = r.opt.Space().Random(r.rng)
			default:
				actions[i] = r.fes(r.agent.ActNoisy(st.State, sigma*(1+0.4*float64(i%4))))
			}
		}
		configs := make([]knob.Config, len(actions))
		for i, a := range actions {
			if i == wideSlot {
				configs[i] = r.wideProbe()
				actions[i] = r.opt.EncodeAction(configs[i])
				continue
			}
			configs[i] = space.Decode(a)
		}
		samples, err := s.EvaluateConfigs(configs)
		prev := st.State
		improved := false
		for _, smp := range samples {
			// smp.Index re-associates the sample with the action that
			// produced it — under a degraded (partial) wave the returned
			// slice can be shorter than the batch, so positional pairing
			// would train the agent on the wrong actions.
			next := r.opt.CompressState(smp.State)
			fit := s.Fitness(smp.Perf)
			r.agent.Observe(ddpg.Transition{
				State:  prev,
				Action: actions[smp.Index],
				Reward: fit,
				Next:   next,
				Done:   smp.Perf.Failed,
			})
			if fit > st.BestFit {
				st.BestFit = fit
				st.BestAction = actions[smp.Index]
				improved = true
			}
			if len(smp.State) == metrics.Count {
				st.State = next
			}
		}
		if improved {
			st.Stagnation = 0
		} else if st.Stagnation++; st.Stagnation >= stallLimit {
			return errStalled
		}
		// Training effort scales with the wave so parallel sessions learn
		// as much per sample as sequential ones.
		for k := 0; k < 2*len(samples)+2; k++ {
			r.agent.TrainStep()
		}
		if len(samples) > 0 {
			s.ChargeModelUpdate()
		}
		if err != nil {
			return err
		}
		if err := s.CheckpointBarrier(barrier); err != nil {
			return err
		}
	}
	return tuner.ErrBudgetExhausted
}

// wideProbe perturbs the best known *full* configuration across every
// tuned knob of the original session space, probing outside the sifted
// subspace.
func (r *recommender) wideProbe() knob.Config {
	best, ok := r.s.Best()
	if !ok || best.Perf.Failed {
		return r.s.Space.Decode(r.s.Space.Random(r.rng))
	}
	full := r.s.Space.Encode(best.Knobs)
	return r.s.Space.Decode(tuner.PerturbPoint(full, 0.08, r.rng))
}

// Snapshot exports the agent parameters for the model-reuse registry.
func (r *recommender) Snapshot() ddpg.Snapshot { return r.agent.Snapshot() }

// Restore fine-tunes from a historical model (online model reuse, §4).
func (r *recommender) Restore(s ddpg.Snapshot) error { return r.agent.Restore(s) }
