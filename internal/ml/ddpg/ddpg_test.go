package ddpg

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/hunter-cdb/hunter/internal/sim"
)

func TestReplayCapacityAndFIFO(t *testing.T) {
	r := NewReplay(3)
	for i := 0; i < 5; i++ {
		r.Add(Transition{Reward: float64(i)})
	}
	if r.Len() != 3 {
		t.Fatalf("len %d, want 3", r.Len())
	}
	// Oldest (0, 1) must be evicted: rewards present are {2, 3, 4}.
	seen := map[float64]bool{}
	for _, tr := range r.buf {
		seen[tr.Reward] = true
	}
	for _, want := range []float64{2, 3, 4} {
		if !seen[want] {
			t.Fatalf("reward %v missing after eviction: %v", want, seen)
		}
	}
}

func TestReplaySample(t *testing.T) {
	r := NewReplay(10)
	if got := r.Sample(5, sim.NewRNG(1)); got != nil {
		t.Fatal("sampling empty buffer should return nil")
	}
	r.Add(Transition{Reward: 7})
	s := r.Sample(4, sim.NewRNG(1))
	if len(s) != 4 {
		t.Fatalf("sample size %d", len(s))
	}
	for _, tr := range s {
		if tr.Reward != 7 {
			t.Fatal("sample returned foreign transition")
		}
	}
}

// TestReplayCapacityProperty: the buffer never exceeds its capacity and
// always retains the most recent transition.
func TestReplayCapacityProperty(t *testing.T) {
	f := func(capRaw uint8, n uint16) bool {
		capacity := int(capRaw)%50 + 1
		r := NewReplay(capacity)
		total := int(n) % 500
		for i := 0; i < total; i++ {
			r.Add(Transition{Reward: float64(i)})
		}
		if r.Len() > capacity {
			return false
		}
		if total == 0 {
			return r.Len() == 0
		}
		for _, tr := range r.buf {
			if tr.Reward == float64(total-1) {
				return true
			}
		}
		return false
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{StateDim: 0, ActionDim: 2}); err == nil {
		t.Fatal("zero state dim should fail")
	}
	if _, err := New(Config{StateDim: 2, ActionDim: 0}); err == nil {
		t.Fatal("zero action dim should fail")
	}
}

func TestActBounds(t *testing.T) {
	a, err := New(Config{StateDim: 4, ActionDim: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	state := []float64{0.5, -1, 2, 0}
	for i := 0; i < 50; i++ {
		for _, v := range a.ActNoisy(state, 0.8) {
			if v < 0 || v > 1 {
				t.Fatalf("noisy action %v outside [0,1]", v)
			}
		}
	}
	for _, v := range a.Act(state) {
		if v < 0 || v > 1 {
			t.Fatalf("action %v outside [0,1]", v)
		}
	}
}

// TestLearnsBandit: with a fixed state and reward −(a−0.7)², the policy
// must move its action toward 0.7 — the minimal end-to-end check that the
// critic learns the value surface and the actor ascends it.
func TestLearnsBandit(t *testing.T) {
	a, err := New(Config{StateDim: 2, ActionDim: 1, Seed: 2, BatchSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	state := []float64{0.3, 0.6}
	rng := sim.NewRNG(3)
	for step := 0; step < 400; step++ {
		act := a.ActNoisy(state, 0.4)
		r := -(act[0] - 0.7) * (act[0] - 0.7)
		a.Observe(Transition{State: state, Action: act, Reward: r, Next: state, Done: true})
		a.TrainStep()
		_ = rng
	}
	final := a.Act(state)[0]
	if math.Abs(final-0.7) > 0.15 {
		t.Fatalf("policy converged to %.3f, want ≈0.7", final)
	}
}

func TestObservePanicsOnBadDims(t *testing.T) {
	a, _ := New(Config{StateDim: 2, ActionDim: 1, Seed: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("bad transition dims should panic")
		}
	}()
	a.Observe(Transition{State: []float64{1}, Action: []float64{1}})
}

func TestTrainStepNeedsBatch(t *testing.T) {
	a, _ := New(Config{StateDim: 2, ActionDim: 1, Seed: 1, BatchSize: 8})
	if loss := a.TrainStep(); loss != 0 {
		t.Fatal("training with an underfull buffer should be a no-op")
	}
}

func TestSnapshotRestore(t *testing.T) {
	a, _ := New(Config{StateDim: 3, ActionDim: 2, Seed: 5})
	state := []float64{0.1, 0.2, 0.3}
	// Train a little so weights move off initialization.
	for i := 0; i < 40; i++ {
		act := a.ActNoisy(state, 0.3)
		a.Observe(Transition{State: state, Action: act, Reward: act[0], Next: state, Done: true})
		a.TrainStep()
	}
	snap := a.Snapshot()
	want := a.Act(state)

	b, _ := New(Config{StateDim: 3, ActionDim: 2, Seed: 99})
	if err := b.Restore(snap); err != nil {
		t.Fatal(err)
	}
	got := b.Act(state)
	for i := range want {
		if want[i] != got[i] {
			t.Fatal("restored agent should act identically")
		}
	}
	c, _ := New(Config{StateDim: 4, ActionDim: 2, Seed: 1})
	if err := c.Restore(snap); err == nil {
		t.Fatal("dimension mismatch should fail")
	}
}

// TestRestoreAllOrNothing gives Restore a donor snapshot with one of its
// four weight vectors one weight short or one long. Each must be refused
// with the agent exactly as it was: snapshots reach Restore from registry
// files and fleet checkpoints, and a half-loaded agent would train the
// donor's actor against its own critic.
func TestRestoreAllOrNothing(t *testing.T) {
	donor, _ := New(Config{StateDim: 3, ActionDim: 2, Seed: 5})
	for _, vec := range []string{"actor", "critic", "target actor", "target critic"} {
		for _, delta := range []int{-1, 1} {
			snap := donor.Snapshot()
			w := map[string]*[]float64{"actor": &snap.Actor, "critic": &snap.Critic,
				"target actor": &snap.ActorT, "target critic": &snap.CriticT}[vec]
			if delta < 0 {
				*w = (*w)[:len(*w)-1]
			} else {
				*w = append(*w, 0.5)
			}
			a, _ := New(Config{StateDim: 3, ActionDim: 2, Seed: 99})
			before := a.Snapshot()
			if err := a.Restore(snap); err == nil {
				t.Errorf("%s %+d weight: snapshot accepted", vec, delta)
			}
			if !reflect.DeepEqual(a.Snapshot(), before) {
				t.Errorf("%s %+d weight: failed restore changed the agent", vec, delta)
			}
		}
	}
}

func TestQEvaluation(t *testing.T) {
	a, _ := New(Config{StateDim: 2, ActionDim: 1, Seed: 6})
	q := a.Q([]float64{0.1, 0.2}, []float64{0.5})
	if math.IsNaN(q) || math.IsInf(q, 0) {
		t.Fatalf("Q = %v", q)
	}
}

func TestHERRelabel(t *testing.T) {
	if HERRelabel(nil) != nil {
		t.Fatal("empty episode should relabel to nil")
	}
	ep := []Transition{
		{Reward: 0.2, State: []float64{1}, Action: []float64{1}},
		{Reward: 0.8, State: []float64{1}, Action: []float64{1}},
		{Reward: 0.5, State: []float64{1}, Action: []float64{1}},
	}
	out := HERRelabel(ep)
	if len(out) != 3 {
		t.Fatalf("relabel length %d", len(out))
	}
	for i, tr := range out {
		if tr.Reward > 0 {
			t.Fatalf("relabel %d: reward %v must be ≤ 0 (distance to hindsight goal)", i, tr.Reward)
		}
	}
	if out[1].Reward != 0 {
		t.Fatal("the best transition achieves the hindsight goal exactly")
	}
	// Originals untouched.
	if ep[0].Reward != 0.2 {
		t.Fatal("relabel must not mutate the input")
	}
}
