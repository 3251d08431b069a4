package tuner

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/hunter-cdb/hunter/internal/chaos"
	"github.com/hunter-cdb/hunter/internal/knob"
	"github.com/hunter-cdb/hunter/internal/telemetry"
	"github.com/hunter-cdb/hunter/internal/workload"
)

// chaosRequest is the fixed request the fault-injection tests run under.
func chaosRequest(plan *chaos.Plan) Request {
	return Request{
		Workload: workload.TPCC(),
		Budget:   4 * time.Hour,
		Clones:   2,
		Seed:     11,
		Chaos:    plan,
	}
}

// TestNewSessionFleetLeakOnCloneFailure is the regression test for the
// provisioning leak: when a clone fails after the user instance (and
// possibly earlier clones) already exist, NewSession must release the
// partial fleet — a failed session leaves zero instances on the provider.
func TestNewSessionFleetLeakOnCloneFailure(t *testing.T) {
	rec := telemetry.New()
	req := chaosRequest(&chaos.Plan{Seed: 1, Profile: chaos.Profile{
		Name: "t", TransientCloneProb: 1,
	}})
	req.Recorder = rec

	if _, err := NewSession(req); err == nil {
		t.Fatal("session survived a permanently failing clone API")
	}
	created := rec.Counter("cloud.instances_created").Value()
	released := rec.Counter("cloud.instances_released").Value()
	if created == 0 {
		t.Fatal("no instance was ever provisioned — the failure fired too early to test the leak")
	}
	if created != released {
		t.Fatalf("failed NewSession leaked instances: created %d, released %d", created, released)
	}
	if active := rec.Gauge("cloud.instances_active").Value(); active != 0 {
		t.Fatalf("failed NewSession left %v instances active", active)
	}
	if got := rec.Counter("cloud.transient_faults").Value(); got != 1+chaos.MaxRetries {
		t.Fatalf("transient_faults = %d, want %d (1 call + %d retries)", got, 1+chaos.MaxRetries, chaos.MaxRetries)
	}
}

// TestActorErrorsJoined is the regression test for error swallowing: when
// several actors fail with real (non-fault) errors in one wave, every
// error must survive into the joined result, not just the first.
func TestActorErrorsJoined(t *testing.T) {
	s, err := NewSession(chaosRequest(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	cfgs := []knob.Config{s.User.Config(), s.User.Config()}
	// Break the stress-test workload under the session's feet: every
	// actor's run now fails with a real (non-fault) error, and the joined
	// error must carry both failures.
	s.Req.Workload = &workload.Profile{Name: "broken"}
	_, err = s.EvaluateConfigs(cfgs)
	if err == nil {
		t.Fatal("broken workload produced no error")
	}
	msg := err.Error()
	if !strings.Contains(msg, "actor 0") || !strings.Contains(msg, "actor 1") {
		t.Fatalf("joined error dropped an actor's failure: %q", msg)
	}
	if !strings.Contains(msg, "config 0") || !strings.Contains(msg, "config 1") {
		t.Fatalf("joined error lost the failing config indexes: %q", msg)
	}
}

// TestDegradedWaveSampleIndex: a partial wave returns fewer samples than
// configurations, and Sample.Index re-associates each surviving sample
// with the configuration that produced it.
func TestDegradedWaveSampleIndex(t *testing.T) {
	s, err := NewSession(chaosRequest(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if len(s.Clones) != 2 {
		t.Fatalf("fleet size %d", len(s.Clones))
	}

	// Distinguishable configurations: a dynamic knob varies per slot.
	cfgs := make([]knob.Config, 4)
	for i := range cfgs {
		c := s.User.Config()
		c["innodb_io_capacity"] = float64(1000 + 500*i)
		cfgs[i] = c
	}
	// Lose the middle of the batch: actor 1 crashes in wave one (config 1),
	// actor 0 in wave two (config 2).
	s.Clones[1].Engine().InjectCrash()
	out, err := s.EvaluateConfigs(cfgs[:2])
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Index != 0 {
		t.Fatalf("wave one: %d samples, index %v; want 1 sample for config 0", len(out), out)
	}
	// Revive clone 1, crash clone 0.
	if err := s.Clones[1].Engine().Configure(s.User.Config()); err != nil {
		t.Fatal(err)
	}
	s.Clones[0].Engine().InjectCrash()
	out, err = s.EvaluateConfigs(cfgs[2:])
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Index != 1 {
		t.Fatalf("wave two: %d samples, index %d; want 1 sample with index 1", len(out), out[0].Index)
	}
	if got, want := out[0].Knobs["innodb_io_capacity"], cfgs[2+out[0].Index]["innodb_io_capacity"]; got != want {
		t.Fatalf("sample/config misalignment: knob %v, want %v", got, want)
	}
}

// TestQuarantineShrinksFleetToLoss drives the catastrophic profile: every
// stress test crashes, strikes accumulate, every slot is quarantined, and
// the session reports ErrFleetLost — after which any further evaluation
// fails fast the same way.
func TestQuarantineShrinksFleetToLoss(t *testing.T) {
	s, err := NewSession(chaosRequest(&chaos.Plan{Seed: 5, Profile: chaos.Catastrophic()}))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Default-config waves: deployment always succeeds, so every step
	// reaches the stress test and crashes (CrashProb 1).
	cfgs := make([]knob.Config, 12)
	for i := range cfgs {
		cfgs[i] = s.User.Config()
	}
	out, err := s.EvaluateConfigs(cfgs)
	if !errors.Is(err, ErrFleetLost) {
		t.Fatalf("err = %v, want ErrFleetLost", err)
	}
	if len(out) != 0 {
		t.Fatalf("%d samples from all-crash waves", len(out))
	}
	if len(s.Clones) != 0 {
		t.Fatalf("fleet not empty after loss: %d clones", len(s.Clones))
	}
	r := s.Resilience()
	if r == nil {
		t.Fatal("no resilience report with chaos armed")
	}
	// 2 clones: wave one crashes both (strike 1, replaced), wave two
	// crashes both replacements (strike 2 = quarantine) — deterministic
	// regardless of seed because every crash roll fires.
	if r.Injected.Crashes != 4 || r.Replacements != 2 || r.Quarantined != 2 ||
		r.PartialWaves != 2 || r.SamplesLost != 4 || r.FleetSize != 0 {
		t.Fatalf("resilience tally off: %+v", r)
	}
	// The user instance survives: the baseline config still serves.
	if s.User == nil {
		t.Fatal("user instance lost with the fleet")
	}
	if _, err := s.Evaluate(s.Space.Random(s.RNG)); !errors.Is(err, ErrFleetLost) {
		t.Fatalf("post-loss Evaluate = %v, want ErrFleetLost", err)
	}
}

// TestResumeChaosFingerprintMismatch: a checkpoint written under one fault
// plan refuses to resume under another — same discipline as seed or
// budget mismatches.
func TestResumeChaosFingerprintMismatch(t *testing.T) {
	plan := &chaos.Plan{Seed: 3, Profile: chaos.Mild()}
	dir := t.TempDir()
	req := chaosRequest(plan)
	req.Checkpoint = &CheckpointPolicy{Dir: dir}
	s, err := NewSession(req)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.EvaluateBatch([][]float64{s.Space.Random(s.RNG)}); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteCheckpoint(nil); err != nil {
		t.Fatal(err)
	}
	path := s.CheckpointPath()

	cases := []struct {
		name string
		plan *chaos.Plan
		want string
	}{
		{"seed", &chaos.Plan{Seed: 4, Profile: chaos.Mild()}, "chaos seed"},
		{"profile", &chaos.Plan{Seed: 3, Profile: chaos.Flaky()}, "chaos"},
		{"disarmed", nil, "chaos"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bad := chaosRequest(tc.plan)
			bad.Checkpoint = &CheckpointPolicy{Dir: dir}
			_, _, err := ResumeSession(context.Background(), bad, path)
			if err == nil {
				t.Fatal("mismatched fault plan accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name the chaos mismatch", err)
			}
		})
	}
}
