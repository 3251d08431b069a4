package ddpg

import (
	"encoding/gob"
	"fmt"
	"io"

	"github.com/hunter-cdb/hunter/internal/ml/nn"
	"github.com/hunter-cdb/hunter/internal/sim"
)

// agentState is the learner's full durable state: hyper-parameters, all
// four networks including their Adam optimizer moments, the complete
// replay buffer (contents and write cursor), the sampling/noise RNG
// mid-stream, and the step counter. Unlike the lightweight Snapshot used
// by the model-reuse registry, this captures everything TrainStep and
// ActNoisy consume, so a restored agent's future updates are
// bit-identical to the original's.
type agentState struct {
	Cfg       Config
	Actor     nn.State
	Critic    nn.State
	ActorT    nn.State
	CriticT   nn.State
	ReplayBuf []Transition
	ReplayPos int
	RNG       sim.RNGState
	Steps     int
}

// SnapshotTo serializes the agent (checkpoint.Snapshotter).
func (a *Agent) SnapshotTo(w io.Writer) error {
	st := agentState{
		Cfg:       a.cfg,
		Actor:     a.actor.State(),
		Critic:    a.critic.State(),
		ActorT:    a.actorT.State(),
		CriticT:   a.criticT.State(),
		ReplayBuf: a.replay.buf,
		ReplayPos: a.replay.pos,
		RNG:       a.rng.State(),
		Steps:     a.steps,
	}
	return gob.NewEncoder(w).Encode(st)
}

// RestoreFrom rebuilds the agent from a state written by SnapshotTo
// (checkpoint.Restorer). The agent is unchanged on error. The receiver may
// have any architecture — the snapshot's configuration wins.
func (a *Agent) RestoreFrom(r io.Reader) error {
	var st agentState
	if err := gob.NewDecoder(r).Decode(&st); err != nil {
		return err
	}
	if err := st.check(); err != nil {
		return err
	}
	fresh, err := New(st.Cfg)
	if err != nil {
		return fmt.Errorf("ddpg: snapshot config: %w", err)
	}
	if err := fresh.actor.SetState(st.Actor); err != nil {
		return err
	}
	if err := fresh.critic.SetState(st.Critic); err != nil {
		return err
	}
	if err := fresh.actorT.SetState(st.ActorT); err != nil {
		return err
	}
	if err := fresh.criticT.SetState(st.CriticT); err != nil {
		return err
	}
	if len(st.ReplayBuf) > fresh.replay.cap {
		return fmt.Errorf("ddpg: snapshot replay holds %d transitions, capacity %d", len(st.ReplayBuf), fresh.replay.cap)
	}
	// The cursor only moves once the buffer is full.
	if st.ReplayPos < 0 || st.ReplayPos >= fresh.replay.cap || (st.ReplayPos != 0 && len(st.ReplayBuf) < fresh.replay.cap) {
		return fmt.Errorf("ddpg: snapshot replay cursor %d out of range for %d of %d transitions", st.ReplayPos, len(st.ReplayBuf), fresh.replay.cap)
	}
	for i, t := range st.ReplayBuf {
		if len(t.State) != st.Cfg.StateDim || len(t.Action) != st.Cfg.ActionDim {
			return fmt.Errorf("ddpg: snapshot transition %d dims (%d,%d) != (%d,%d)",
				i, len(t.State), len(t.Action), st.Cfg.StateDim, st.Cfg.ActionDim)
		}
	}
	fresh.replay.buf = append(fresh.replay.buf[:0], st.ReplayBuf...)
	fresh.replay.pos = st.ReplayPos
	if err := fresh.rng.SetState(st.RNG); err != nil {
		return err
	}
	fresh.steps = st.Steps
	*a = *fresh
	return nil
}

// check validates a decoded state before New sizes anything from it: the
// configuration must describe exactly the four networks that were decoded
// (layer count, the positive In/Out chains and every slice length), so
// each allocation New makes is bounded by bytes actually read, and the
// batch size must be one TrainStep can gather.
func (st *agentState) check() error {
	cfg := st.Cfg.withDefaults()
	if cfg.BatchSize < 1 {
		return fmt.Errorf("ddpg: snapshot batch size %d must be positive", cfg.BatchSize)
	}
	actor := append(append([]int{cfg.StateDim}, cfg.Hidden...), cfg.ActionDim)
	critic := append(append([]int{cfg.StateDim + cfg.ActionDim}, cfg.Hidden...), 1)
	for _, net := range []struct {
		name  string
		st    nn.State
		sizes []int
	}{{"actor", st.Actor, actor}, {"critic", st.Critic, critic}, {"target actor", st.ActorT, actor}, {"target critic", st.CriticT, critic}} {
		if err := net.st.CheckSizes(net.sizes); err != nil {
			return fmt.Errorf("ddpg: snapshot %s: %w", net.name, err)
		}
	}
	return nil
}
