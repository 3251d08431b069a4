// Package ddpg implements Deep Deterministic Policy Gradient (Lillicrap et
// al.), the DRL algorithm of the paper's Recommender (§3.3) and of the
// CDBTune/QTune baselines: an actor–critic pair with target networks, an
// experience-replay buffer, and soft target updates. States are compressed
// metric vectors, actions are normalized knob settings in [0,1]^k, and the
// reward is the Eq. 1 fitness.
package ddpg

import (
	"fmt"
	"math"

	"github.com/hunter-cdb/hunter/internal/ml/nn"
	"github.com/hunter-cdb/hunter/internal/sim"
)

// Transition is one experience tuple.
type Transition struct {
	State  []float64
	Action []float64
	Reward float64
	Next   []float64
	Done   bool
}

// Replay is a bounded FIFO experience buffer with uniform sampling.
type Replay struct {
	buf []Transition
	cap int // logical bound; buf grows by append until it holds cap
	pos int
}

// NewReplay creates a buffer holding up to capacity transitions. Storage
// grows with the transitions added, not with the bound: a session stores
// a few hundred of the default 100,000.
func NewReplay(capacity int) *Replay {
	if capacity < 1 {
		capacity = 1
	}
	return &Replay{cap: capacity}
}

// Add appends a transition, evicting the oldest when full.
func (r *Replay) Add(t Transition) {
	if len(r.buf) < r.cap {
		r.buf = append(r.buf, t)
		return
	}
	r.buf[r.pos] = t
	r.pos = (r.pos + 1) % r.cap
}

// Len returns the number of stored transitions.
func (r *Replay) Len() int { return len(r.buf) }

// Sample draws n transitions uniformly with replacement.
func (r *Replay) Sample(n int, rng *sim.RNG) []Transition {
	if len(r.buf) == 0 {
		return nil
	}
	out := make([]Transition, n)
	for i := range out {
		out[i] = r.buf[rng.Intn(len(r.buf))]
	}
	return out
}

// The learning hyper-parameters: the actor's and the critic's Adam
// learning rates, the reward discount γ and the soft target-update rate τ.
const (
	actorLR  float64 = 1e-3
	criticLR float64 = 1e-3
	gamma    float64 = 0.9
	tau      float64 = 0.01
)

// Config sets the agent's network shapes, minibatch and replay sizes, and
// seed.
type Config struct {
	StateDim  int
	ActionDim int
	Hidden    []int // default {64, 64}
	BatchSize int
	Capacity  int
	Seed      int64
}

func (c Config) withDefaults() Config {
	if len(c.Hidden) == 0 {
		c.Hidden = []int{64, 64}
	}
	if c.BatchSize == 0 {
		c.BatchSize = 32
	}
	if c.Capacity == 0 {
		c.Capacity = 100000
	}
	return c
}

// Agent is a DDPG learner.
type Agent struct {
	cfg     Config
	actor   *nn.MLP
	critic  *nn.MLP
	actorT  *nn.MLP
	criticT *nn.MLP
	replay  *Replay
	rng     *sim.RNG
	steps   int
	scratch *trainScratch // minibatch workspaces, reused every step
}

// trainScratch is the preallocated minibatch workspace one training step
// runs in: the gathered state/action/next-state matrices, the TD-target
// and gradient vectors, and one nn.BatchWorkspace per network. Everything
// is sized once for the configured batch and reused, so a warm TrainStep
// allocates nothing.
type trainScratch struct {
	idx    []int     // sampled replay slots
	valid  []bool    // row has a usable next state
	states []float64 // n×s
	nexts  []float64 // n×s (invalid rows zero-filled)
	sa     []float64 // n×(s+a) state‖action input
	ys     []float64 // n TD targets
	dq     []float64 // n×1 critic output gradient / ones
	negs   []float64 // n×a negated action gradients

	actor, critic, actorT, criticT nn.BatchWorkspace
}

// ensureScratch sizes the minibatch workspaces for the configured batch.
func (a *Agent) ensureScratch() *trainScratch {
	if a.scratch != nil {
		return a.scratch
	}
	n, s, ad := a.cfg.BatchSize, a.cfg.StateDim, a.cfg.ActionDim
	a.scratch = &trainScratch{
		idx:    make([]int, n),
		valid:  make([]bool, n),
		states: make([]float64, n*s),
		nexts:  make([]float64, n*s),
		sa:     make([]float64, n*(s+ad)),
		ys:     make([]float64, n),
		dq:     make([]float64, n),
		negs:   make([]float64, n*ad),
	}
	return a.scratch
}

// New creates an agent with randomly initialized networks.
func New(cfg Config) (*Agent, error) {
	cfg = cfg.withDefaults()
	if cfg.StateDim <= 0 || cfg.ActionDim <= 0 {
		return nil, fmt.Errorf("ddpg: state dim %d / action dim %d must be positive", cfg.StateDim, cfg.ActionDim)
	}
	rng := sim.NewRNG(cfg.Seed)
	actorSizes := append([]int{cfg.StateDim}, cfg.Hidden...)
	actorSizes = append(actorSizes, cfg.ActionDim)
	actorActs := make([]nn.Activation, len(actorSizes)-1)
	for i := range actorActs {
		actorActs[i] = nn.ReLU
	}
	actorActs[len(actorActs)-1] = nn.Sigmoid // actions live in [0,1]

	criticSizes := append([]int{cfg.StateDim + cfg.ActionDim}, cfg.Hidden...)
	criticSizes = append(criticSizes, 1)
	criticActs := make([]nn.Activation, len(criticSizes)-1)
	for i := range criticActs {
		criticActs[i] = nn.ReLU
	}
	criticActs[len(criticActs)-1] = nn.Linear

	actor, err := nn.NewMLP(actorSizes, actorActs, rng.Fork())
	if err != nil {
		return nil, err
	}
	critic, err := nn.NewMLP(criticSizes, criticActs, rng.Fork())
	if err != nil {
		return nil, err
	}
	return &Agent{
		cfg:     cfg,
		actor:   actor,
		critic:  critic,
		actorT:  actor.Clone(),
		criticT: critic.Clone(),
		replay:  NewReplay(cfg.Capacity),
		rng:     rng,
	}, nil
}

// Replay exposes the experience buffer (the Shared Pool feeds it).
func (a *Agent) Replay() *Replay { return a.replay }

// Act returns the deterministic policy action μ(s).
func (a *Agent) Act(state []float64) []float64 {
	return a.actor.Forward(state)
}

// ActNoisy returns μ(s) plus Gaussian exploration noise, clipped to [0,1].
func (a *Agent) ActNoisy(state []float64, sigma float64) []float64 {
	out := a.Act(state)
	for i := range out {
		out[i] = sim.Clamp(out[i]+a.rng.Gaussian(0, sigma), 0, 1)
	}
	return out
}

// Observe stores a transition in the replay buffer.
func (a *Agent) Observe(t Transition) {
	if len(t.State) != a.cfg.StateDim || len(t.Action) != a.cfg.ActionDim {
		panic(fmt.Sprintf("ddpg: transition dims (%d,%d) != (%d,%d)",
			len(t.State), len(t.Action), a.cfg.StateDim, a.cfg.ActionDim))
	}
	a.replay.Add(t)
}

// TrainStep performs one minibatch update of critic and actor followed by
// soft target updates, returning the critic's mean-squared TD error.
//
// The whole update runs as minibatch matrix kernels over preallocated
// workspaces: TD targets and action gradients come from batched forward
// passes of the frozen networks (rows independent — identical per row to
// a sample-at-a-time loop), and the gradient accumulation into the live
// networks lands in ascending batch-row order per element — the exact
// order of the per-transition loop it replaces. The resulting weights are
// therefore bit-identical to the former per-sample implementation, for
// any worker count. A warm step allocates nothing.
func (a *Agent) TrainStep() float64 {
	if a.replay.Len() < a.cfg.BatchSize {
		return 0
	}
	n, s, ad := a.cfg.BatchSize, a.cfg.StateDim, a.cfg.ActionDim
	ws := a.ensureScratch()
	// Uniform sampling with replacement — the same RNG draws, in the same
	// order, Replay.Sample made; only the transition-slice copy is gone.
	for i := range ws.idx {
		ws.idx[i] = a.rng.Intn(a.replay.Len())
	}
	a.steps++

	// --- TD targets (read-only on actorT/criticT) ---
	// Rows without a usable next state are zero-filled; their network
	// outputs are computed but unused, and rows are independent, so the
	// valid rows match the per-sample pass exactly.
	for i, j := range ws.idx {
		t := &a.replay.buf[j]
		ws.valid[i] = !t.Done && len(t.Next) == s
		row := ws.nexts[i*s : (i+1)*s]
		if ws.valid[i] {
			copy(row, t.Next)
		} else {
			for k := range row {
				row[k] = 0
			}
		}
	}
	na := a.actorT.ForwardBatch(&ws.actorT, ws.nexts, n)
	for i := 0; i < n; i++ {
		copy(ws.sa[i*(s+ad):], ws.nexts[i*s:(i+1)*s])
		copy(ws.sa[i*(s+ad)+s:(i+1)*(s+ad)], na[i*ad:(i+1)*ad])
	}
	qn := a.criticT.ForwardBatch(&ws.criticT, ws.sa, n)
	for i, j := range ws.idx {
		y := a.replay.buf[j].Reward
		if ws.valid[i] {
			y += gamma * qn[i]
		}
		ws.ys[i] = y
	}

	// --- Critic update: batched forward, accumulation in batch order ---
	for i, j := range ws.idx {
		t := &a.replay.buf[j]
		copy(ws.sa[i*(s+ad):], t.State)
		copy(ws.sa[i*(s+ad)+s:(i+1)*(s+ad)], t.Action)
	}
	q := a.critic.ForwardBatch(&ws.critic, ws.sa, n)
	a.critic.ZeroGrad()
	var loss float64
	for i := 0; i < n; i++ {
		d := q[i] - ws.ys[i]
		loss += d * d
		ws.dq[i] = 2 * d
	}
	a.critic.BackwardBatch(&ws.critic, ws.dq)
	a.critic.Step(criticLR, n, 5)

	// --- Actor update: ascend Q(s, μ(s)) ---
	// Action gradients flow through the (now frozen) critic's batched
	// input-gradient pass, computed for the action columns only; the
	// actor's backward then accumulates over the same batched activations
	// in batch-row order.
	for i, j := range ws.idx {
		copy(ws.states[i*s:(i+1)*s], a.replay.buf[j].State)
	}
	acts := a.actor.ForwardBatch(&ws.actor, ws.states, n)
	for i := 0; i < n; i++ {
		copy(ws.sa[i*(s+ad):], ws.states[i*s:(i+1)*s])
		copy(ws.sa[i*(s+ad)+s:(i+1)*(s+ad)], acts[i*ad:(i+1)*ad])
	}
	a.critic.ForwardBatch(&ws.critic, ws.sa, n)
	for i := range ws.dq {
		ws.dq[i] = 1
	}
	dIn := a.critic.InputGradBatch(&ws.critic, ws.dq, s, s+ad)
	// Negate: MLP.Step descends, we want ascent on Q.
	for i := 0; i < n; i++ {
		dAct := dIn[i*(s+ad)+s : (i+1)*(s+ad)]
		for j, g := range dAct {
			ws.negs[i*ad+j] = -g
		}
	}
	a.actor.ZeroGrad()
	a.actor.BackwardBatch(&ws.actor, ws.negs)
	a.actor.Step(actorLR, n, 5)

	// --- Soft target updates ---
	a.actor.SoftUpdate(a.actorT, tau)
	a.critic.SoftUpdate(a.criticT, tau)
	return loss / float64(n)
}

// Q evaluates the critic for a state–action pair.
func (a *Agent) Q(state, action []float64) float64 {
	sa := make([]float64, 0, a.cfg.StateDim+a.cfg.ActionDim)
	sa = append(sa, state...)
	sa = append(sa, action...)
	return a.critic.Forward(sa)[0]
}

// Dims returns the agent's state and action dimensionality.
func (a *Agent) Dims() (state, action int) { return a.cfg.StateDim, a.cfg.ActionDim }

// Steps returns the number of training steps performed.
func (a *Agent) Steps() int { return a.steps }

// Snapshot captures the learner's parameters for the model-reuse schemes.
type Snapshot struct {
	StateDim, ActionDim int
	Actor, Critic       []float64
	ActorT, CriticT     []float64
}

// Snapshot exports the agent's parameters.
func (a *Agent) Snapshot() Snapshot {
	return Snapshot{
		StateDim:  a.cfg.StateDim,
		ActionDim: a.cfg.ActionDim,
		Actor:     a.actor.Weights(),
		Critic:    a.critic.Weights(),
		ActorT:    a.actorT.Weights(),
		CriticT:   a.criticT.Weights(),
	}
}

// Restore loads a snapshot taken from an agent of identical architecture.
// It checks the dimensions and the length of all four weight vectors
// before copying anything, so it either loads the whole snapshot or
// returns an error and leaves the agent unchanged.
func (a *Agent) Restore(s Snapshot) error {
	if s.StateDim != a.cfg.StateDim || s.ActionDim != a.cfg.ActionDim {
		return fmt.Errorf("ddpg: snapshot dims (%d,%d) != agent (%d,%d)",
			s.StateDim, s.ActionDim, a.cfg.StateDim, a.cfg.ActionDim)
	}
	nets := []struct {
		name string
		net  *nn.MLP
		w    []float64
	}{{"actor", a.actor, s.Actor}, {"critic", a.critic, s.Critic}, {"target actor", a.actorT, s.ActorT}, {"target critic", a.criticT, s.CriticT}}
	for _, n := range nets {
		if len(n.w) != n.net.NumWeights() {
			return fmt.Errorf("ddpg: snapshot %s holds %d weights, agent needs %d", n.name, len(n.w), n.net.NumWeights())
		}
	}
	for _, n := range nets {
		if err := n.net.SetWeights(n.w); err != nil {
			return err
		}
	}
	return nil
}

// HERRelabel implements the hindsight-experience-replay warm-up baseline
// compared in Table 6: each transition is duplicated with its reward
// relabeled relative to the best reward achieved in the episode (the
// achieved performance becomes the goal), densifying the learning signal.
func HERRelabel(episode []Transition) []Transition {
	if len(episode) == 0 {
		return nil
	}
	best := math.Inf(-1)
	for _, t := range episode {
		if t.Reward > best {
			best = t.Reward
		}
	}
	out := make([]Transition, 0, len(episode))
	for _, t := range episode {
		r := t.Reward - best // ≤ 0: distance to the hindsight goal
		out = append(out, Transition{State: t.State, Action: t.Action, Reward: r, Next: t.Next, Done: t.Done})
	}
	return out
}
