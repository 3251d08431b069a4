package ddpg

import (
	"bytes"
	"encoding/gob"
	"io"
	"math"
	"reflect"
	"testing"

	"github.com/hunter-cdb/hunter/internal/ml/nn"
	"github.com/hunter-cdb/hunter/internal/sim"
)

// TestAgentSnapshotRoundTrip checkpoints an agent mid-training (weights,
// replay buffer and RNG stream) and verifies the restored agent's future
// actions and training updates are bit-identical.
func TestAgentSnapshotRoundTrip(t *testing.T) {
	a, err := New(Config{StateDim: 5, ActionDim: 3, Hidden: []int{16, 16}, BatchSize: 8, Capacity: 64, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	state := []float64{0.1, -0.2, 0.3, 0.4, -0.5}
	for i := 0; i < 40; i++ {
		act := a.ActNoisy(state, 0.2)
		a.Observe(Transition{State: state, Action: act, Reward: float64(i%5) - 2, Next: state, Done: i%9 == 0})
		a.TrainStep()
	}

	var buf bytes.Buffer
	if err := a.SnapshotTo(&buf); err != nil {
		t.Fatalf("SnapshotTo: %v", err)
	}
	b, err := New(Config{StateDim: 2, ActionDim: 2, Seed: 123}) // replaced wholesale
	if err != nil {
		t.Fatal(err)
	}
	if err := b.RestoreFrom(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("RestoreFrom: %v", err)
	}
	if b.Steps() != a.Steps() || b.Replay().Len() != a.Replay().Len() {
		t.Fatalf("steps/replay: (%d,%d) != (%d,%d)", b.Steps(), b.Replay().Len(), a.Steps(), a.Replay().Len())
	}

	// The continuation must match draw-for-draw and update-for-update.
	for i := 0; i < 25; i++ {
		actA, actB := a.ActNoisy(state, 0.15), b.ActNoisy(state, 0.15)
		for j := range actA {
			if actA[j] != actB[j] {
				t.Fatalf("step %d action[%d]: %v != %v", i, j, actA[j], actB[j])
			}
		}
		tr := Transition{State: state, Action: actA, Reward: 0.5, Next: state}
		a.Observe(tr)
		b.Observe(tr)
		la, lb := a.TrainStep(), b.TrainStep()
		if la != lb {
			t.Fatalf("step %d loss: %v != %v", i, la, lb)
		}
	}
	wa, wb := a.Snapshot(), b.Snapshot()
	for i := range wa.Actor {
		if wa.Actor[i] != wb.Actor[i] {
			t.Fatalf("actor weight %d diverged", i)
		}
	}
	for i := range wa.CriticT {
		if wa.CriticT[i] != wb.CriticT[i] {
			t.Fatalf("critic target weight %d diverged", i)
		}
	}
}

// TestAgentRestoreRejectsBad checks garbage and inconsistent snapshots are
// refused without touching the receiver.
func TestAgentRestoreRejectsBad(t *testing.T) {
	a, err := New(Config{StateDim: 3, ActionDim: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	before := a.Snapshot()
	if err := a.RestoreFrom(bytes.NewReader([]byte{0xde, 0xad})); err == nil {
		t.Fatal("garbage accepted")
	}
	after := a.Snapshot()
	for i := range before.Actor {
		if before.Actor[i] != after.Actor[i] {
			t.Fatal("failed restore mutated the agent")
		}
	}
}

// trainedSnapshot returns the SnapshotTo bytes of a small agent trained
// past its batch size, its replay buffer not yet full.
func trainedSnapshot(tb testing.TB) []byte {
	tb.Helper()
	a, err := New(Config{StateDim: 3, ActionDim: 2, Hidden: []int{8, 8}, BatchSize: 4, Capacity: 32, Seed: 3})
	if err != nil {
		tb.Fatal(err)
	}
	state := []float64{0.2, -0.1, 0.4}
	for i := 0; i < 12; i++ {
		act := a.ActNoisy(state, 0.3)
		a.Observe(Transition{State: state, Action: act, Reward: act[0] - act[1], Next: state, Done: i%5 == 0})
		a.TrainStep()
	}
	var buf bytes.Buffer
	if err := a.SnapshotTo(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// craftAgent decodes a real snapshot, lets edit overwrite the decoded
// state, and re-encodes it — the bytes a corrupt or hostile checkpoint
// section would hand RestoreFrom.
func craftAgent(tb testing.TB, data []byte, edit func(*agentState)) []byte {
	tb.Helper()
	var st agentState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		tb.Fatal(err)
	}
	edit(&st)
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// exercise runs what a resumed session asks of a restored agent.
func exercise(tb testing.TB, a *Agent) {
	tb.Helper()
	sd, _ := a.Dims()
	for i := 0; i < 3; i++ {
		act := a.ActNoisy(make([]float64, sd), 0.2)
		a.Observe(Transition{State: make([]float64, sd), Action: act, Next: make([]float64, sd)})
		a.TrainStep()
	}
	if err := a.SnapshotTo(io.Discard); err != nil {
		tb.Fatal(err)
	}
}

// TestAgentRestoreRejectsCraftedState feeds snapshots whose decoded
// configuration, network geometry or replay bookkeeping was overwritten.
// Each must be refused before anything is sized from it; the huge hidden
// width once made New try to allocate terabytes, and the negative batch
// size passed restore and crashed the first TrainStep.
func TestAgentRestoreRejectsCraftedState(t *testing.T) {
	data := trainedSnapshot(t)
	for _, tc := range []struct {
		name string
		edit func(*agentState)
	}{
		{"huge hidden width", func(st *agentState) { st.Cfg.Hidden = []int{1 << 40, 64} }},
		{"hidden width off the networks", func(st *agentState) { st.Cfg.Hidden = []int{8, 9} }},
		{"state dim off the networks", func(st *agentState) { st.Cfg.StateDim = 4 }},
		{"overflowing dims", func(st *agentState) { st.Cfg.StateDim, st.Cfg.ActionDim = math.MaxInt, 2 }},
		{"critic layer count", func(st *agentState) { st.Critic.Layers = st.Critic.Layers[:2] }},
		{"target actor slice length", func(st *agentState) { st.ActorT.Layers[1].VW = st.ActorT.Layers[1].VW[1:] }},
		{"negative batch size", func(st *agentState) { st.Cfg.BatchSize = -1 }},
		{"replay over capacity", func(st *agentState) { st.Cfg.Capacity = 4 }},
		{"negative replay cursor", func(st *agentState) { st.ReplayPos = -1 }},
		{"replay cursor past capacity", func(st *agentState) { st.ReplayPos = st.Cfg.Capacity }},
		{"replay cursor moved before the buffer filled", func(st *agentState) { st.ReplayPos = 1 }},
	} {
		a, err := New(Config{StateDim: 2, ActionDim: 1, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		before := a.Snapshot()
		if err := a.RestoreFrom(bytes.NewReader(craftAgent(t, data, tc.edit))); err == nil {
			t.Errorf("%s: crafted snapshot accepted", tc.name)
		}
		if !reflect.DeepEqual(a.Snapshot(), before) {
			t.Errorf("%s: failed restore mutated the agent", tc.name)
		}
	}
}

// TestAgentRestoreHugeCapacity: the replay bound is logical, so a
// snapshot claiming a 2⁶² capacity restores without sizing anything from
// it, and the agent trains, acts and snapshots as before.
func TestAgentRestoreHugeCapacity(t *testing.T) {
	data := craftAgent(t, trainedSnapshot(t), func(st *agentState) { st.Cfg.Capacity = 1 << 62 })
	var a Agent
	if err := a.RestoreFrom(bytes.NewReader(data)); err != nil {
		t.Fatalf("RestoreFrom: %v", err)
	}
	if a.Replay().Len() != 12 {
		t.Fatalf("replay holds %d transitions, want 12", a.Replay().Len())
	}
	exercise(t, &a)
}

// TestAgentRestoreIgnoresLearningRates: snapshots in the older layout
// carry the learning rates, discount and target-update rate in their
// configuration. Those are constants now, so a non-finite value there
// cannot reach training: the agent restores, trains and acts finitely.
func TestAgentRestoreIgnoresLearningRates(t *testing.T) {
	type olderConfig struct {
		StateDim, ActionDim           int
		Hidden                        []int
		ActorLR, CriticLR, Gamma, Tau float64
		BatchSize, Capacity           int
		Seed                          int64
	}
	type olderLayout struct {
		Cfg                            olderConfig
		Actor, Critic, ActorT, CriticT nn.State
		ReplayBuf                      []Transition
		ReplayPos                      int
		RNG                            sim.RNGState
		Steps                          int
	}
	var st agentState
	if err := gob.NewDecoder(bytes.NewReader(trainedSnapshot(t))).Decode(&st); err != nil {
		t.Fatal(err)
	}
	old := olderLayout{
		Cfg: olderConfig{
			StateDim: st.Cfg.StateDim, ActionDim: st.Cfg.ActionDim, Hidden: st.Cfg.Hidden,
			ActorLR: math.NaN(), CriticLR: math.NaN(), Gamma: math.Inf(1), Tau: math.Inf(1),
			BatchSize: st.Cfg.BatchSize, Capacity: st.Cfg.Capacity, Seed: st.Cfg.Seed,
		},
		Actor: st.Actor, Critic: st.Critic, ActorT: st.ActorT, CriticT: st.CriticT,
		ReplayBuf: st.ReplayBuf, ReplayPos: st.ReplayPos, RNG: st.RNG, Steps: st.Steps,
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(old); err != nil {
		t.Fatal(err)
	}
	var a Agent
	if err := a.RestoreFrom(&buf); err != nil {
		t.Fatalf("RestoreFrom: %v", err)
	}
	state := []float64{0.2, -0.1, 0.4}
	for i := 0; i < 3; i++ {
		a.TrainStep()
	}
	for j, v := range a.Act(state) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("action[%d] = %v after training a restored agent", j, v)
		}
	}
}

// FuzzAgentRestore overwrites a real snapshot's decoded configuration,
// replay cursor and one layer's geometry, and re-encodes it. RestoreFrom
// must return an error, or an agent whose TrainStep, Act and SnapshotTo
// all run.
func FuzzAgentRestore(f *testing.F) {
	data := trainedSnapshot(f)
	f.Add(3, 2, 8, 8, 4, 32, 0, uint8(0), 3, 8)
	f.Add(3, 2, 8, 8, 4, 1<<62, 5, uint8(0), 3, 8)
	f.Add(3, 2, 1<<40, 64, 4, 32, 0, uint8(0), 3, 8)
	f.Add(3, 2, 8, 8, -1, 32, 0, uint8(0), 3, 8)
	f.Add(3, 2, 8, 8, 4, 32, -1, uint8(5), 1<<40, 8)
	f.Add(math.MaxInt, 2, 8, 8, 1, 1, 1<<40, uint8(11), 0, -1)
	f.Fuzz(func(t *testing.T, stateDim, actionDim, h0, h1, batch, capacity, pos int, layer uint8, in, out int) {
		crafted := craftAgent(t, data, func(st *agentState) {
			st.Cfg.StateDim, st.Cfg.ActionDim, st.Cfg.Hidden = stateDim, actionDim, []int{h0, h1}
			st.Cfg.BatchSize, st.Cfg.Capacity, st.ReplayPos = batch, capacity, pos
			nets := []*nn.State{&st.Actor, &st.Critic, &st.ActorT, &st.CriticT}
			ly := &nets[layer%4].Layers[int(layer/4)%3]
			ly.In, ly.Out = in, out
		})
		var a Agent
		if err := a.RestoreFrom(bytes.NewReader(crafted)); err != nil {
			return
		}
		exercise(t, &a)
	})
}
