package chaos

import (
	"testing"
	"time"
)

// TestDecisionsDeterministic is the core contract: every decision is a
// pure function of (seed, site, sequence numbers), so two engines with the
// same seed and profile agree on every roll, in any call order.
func TestDecisionsDeterministic(t *testing.T) {
	a := NewEngine(42, Flaky())
	b := NewEngine(42, Flaky())
	// Roll b in reverse order: order must not matter.
	type roll struct{ actor, seq int64 }
	var rolls []roll
	for actor := int64(0); actor < 5; actor++ {
		for seq := int64(0); seq < 40; seq++ {
			rolls = append(rolls, roll{actor, seq})
		}
	}
	got := make(map[roll][5]any)
	for _, r := range rolls {
		f, ok := a.SlowIO(r.actor, r.seq)
		got[r] = [5]any{a.Crash(r.actor, r.seq), f, ok, a.Hang(r.actor, r.seq), a.TransientDeploy(r.actor, r.seq)}
	}
	for i := len(rolls) - 1; i >= 0; i-- {
		r := rolls[i]
		f, ok := b.SlowIO(r.actor, r.seq)
		want := [5]any{b.Crash(r.actor, r.seq), f, ok, b.Hang(r.actor, r.seq), b.TransientDeploy(r.actor, r.seq)}
		if got[r] != want {
			t.Fatalf("roll %+v differs between engines: %v vs %v", r, got[r], want)
		}
	}
	if a.Counts() != b.Counts() {
		t.Fatalf("tallies diverge: %+v vs %+v", a.Counts(), b.Counts())
	}
	if a.Counts().Total() == 0 {
		t.Fatal("flaky profile injected nothing over 200 rolls")
	}
}

// TestSeedVariesDecisions: a different engine seed must produce a
// different fault plan.
func TestSeedVariesDecisions(t *testing.T) {
	a, b := NewEngine(1, Flaky()), NewEngine(2, Flaky())
	same := true
	for seq := int64(0); seq < 200; seq++ {
		if a.Crash(0, seq) != b.Crash(0, seq) {
			same = false
		}
	}
	if same {
		t.Fatal("seeds 1 and 2 produced identical crash plans over 200 steps")
	}
}

// TestNilEngineIsDisabled: a nil *Engine is the disabled injector — every
// decision is "no fault" and every policy accessor is the zero policy.
func TestNilEngineIsDisabled(t *testing.T) {
	var e *Engine
	if e.BootFailure(0) || e.TransientClone(0) || e.TransientDeploy(0, 0) ||
		e.Crash(0, 0) || e.Hang(0, 0) {
		t.Fatal("nil engine injected a fault")
	}
	if f, ok := e.SlowIO(0, 0); ok || f != 1 {
		t.Fatalf("nil engine slow-io = (%v, %v)", f, ok)
	}
	if e.MaxRetries() != 0 || e.Backoff(3) != 0 || e.QuarantineAfter() != 0 ||
		e.DeadlineFactor() != 0 || e.HangFactor() != 1 || e.CrashFraction(0, 0) != 0 {
		t.Fatal("nil engine policy accessors not zero")
	}
	if e.Counts().Total() != 0 {
		t.Fatal("nil engine tallied faults")
	}
	e.SetCounts(Counts{Crashes: 3}) // must not panic
}

func TestProfileByName(t *testing.T) {
	for _, name := range []string{"off", "mild", "flaky", "catastrophic"} {
		p, err := ProfileByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.Name != name {
			t.Fatalf("ProfileByName(%q).Name = %q", name, p.Name)
		}
		if name == "off" && p.Enabled() {
			t.Fatal("off profile enabled")
		}
		if name != "off" && !p.Enabled() {
			t.Fatalf("%s profile disabled", name)
		}
	}
	if p, err := ProfileByName(""); err != nil || p.Enabled() {
		t.Fatalf("empty name should resolve to off: %v %v", p, err)
	}
	if _, err := ProfileByName("hurricane"); err == nil {
		t.Fatal("unknown profile accepted")
	}
}

// TestBackoffBoundedDoubling: the retry delay doubles per attempt and is
// capped.
func TestBackoffBoundedDoubling(t *testing.T) {
	e := NewEngine(1, Profile{Name: "t", CrashProb: 1})
	want := []time.Duration{10 * time.Second, 20 * time.Second, 40 * time.Second,
		80 * time.Second, 160 * time.Second, BackoffCap, BackoffCap}
	for i, w := range want {
		if got := e.Backoff(i); got != w {
			t.Fatalf("Backoff(%d) = %v, want %v", i, got, w)
		}
	}
}

// TestDefaultsFilled: an enabled profile without policy fields gets the
// safe defaults.
func TestDefaultsFilled(t *testing.T) {
	e := NewEngine(1, Profile{Name: "bare", CrashProb: 0.5})
	p := e.Profile()
	if e.MaxRetries() != MaxRetries || e.DeadlineFactor() != DeadlineFactor ||
		p.QuarantineAfter <= 0 || p.SlowIOMin < 1 || p.SlowIOMax <= p.SlowIOMin {
		t.Fatalf("defaults not filled: %+v", p)
	}
	if e.HangFactor() <= e.DeadlineFactor() {
		t.Fatalf("hang factor %v must exceed the deadline factor %v", e.HangFactor(), e.DeadlineFactor())
	}
}

// TestSlowIOFactorInRange and crash fractions stay inside their documented
// intervals.
func TestFactorRanges(t *testing.T) {
	e := NewEngine(9, Flaky())
	p := e.Profile()
	hits := 0
	for seq := int64(0); seq < 500; seq++ {
		if f, ok := e.SlowIO(1, seq); ok {
			hits++
			if f < p.SlowIOMin || f >= p.SlowIOMax {
				t.Fatalf("slow-io factor %v outside [%v, %v)", f, p.SlowIOMin, p.SlowIOMax)
			}
		}
		if fr := e.CrashFraction(1, seq); fr < 0.05 || fr >= 0.95 {
			t.Fatalf("crash fraction %v outside [0.05, 0.95)", fr)
		}
	}
	if hits == 0 {
		t.Fatal("no slow-io faults in 500 rolls under the flaky profile")
	}
}

// TestCountsRoundTrip: SetCounts reinstates a checkpointed tally exactly.
func TestCountsRoundTrip(t *testing.T) {
	e := NewEngine(3, Flaky())
	for seq := int64(0); seq < 100; seq++ {
		e.Crash(0, seq)
		e.BootFailure(seq)
		e.TransientClone(seq)
	}
	c := e.Counts()
	if c.Total() == 0 {
		t.Fatal("nothing tallied")
	}
	f := NewEngine(3, Flaky())
	f.SetCounts(c)
	if f.Counts() != c {
		t.Fatalf("round trip %+v != %+v", f.Counts(), c)
	}
}

// TestPlanEnabled: nil plans and off profiles are disabled.
func TestPlanEnabled(t *testing.T) {
	var p *Plan
	if p.Enabled() {
		t.Fatal("nil plan enabled")
	}
	if (&Plan{Seed: 1, Profile: Off()}).Enabled() {
		t.Fatal("off plan enabled")
	}
	if !(&Plan{Seed: 1, Profile: Mild()}).Enabled() {
		t.Fatal("mild plan disabled")
	}
}
