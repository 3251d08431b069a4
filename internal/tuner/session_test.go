package tuner

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"github.com/hunter-cdb/hunter/internal/knob"
	"github.com/hunter-cdb/hunter/internal/sim"
	"github.com/hunter-cdb/hunter/internal/simdb"
	"github.com/hunter-cdb/hunter/internal/workload"
)

func newTestSession(t *testing.T, clones int, budget time.Duration) *Session {
	t.Helper()
	s, err := NewSession(Request{
		Workload: workload.TPCC(),
		Budget:   budget,
		Clones:   clones,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func TestSessionDefaults(t *testing.T) {
	s := newTestSession(t, 1, time.Hour)
	if s.Req.Type.Name != "F" {
		t.Fatalf("default instance type %s, want F", s.Req.Type.Name)
	}
	if len(s.Req.KnobNames) != 65 {
		t.Fatalf("default knob set %d, want 65", len(s.Req.KnobNames))
	}
	if s.Alpha != 0.5 {
		t.Fatalf("default alpha %v", s.Alpha)
	}
	if s.DefaultPerf.ThroughputTPS <= 0 {
		t.Fatal("default perf not measured")
	}
	if s.Elapsed() <= 0 {
		t.Fatal("setup must consume virtual time (clone + default stress test)")
	}
}

func TestSessionRequestValidation(t *testing.T) {
	if _, err := NewSession(Request{}); err == nil {
		t.Fatal("request without workload should fail")
	}
	bad := workload.TPCC()
	bad.Threads = 0
	if _, err := NewSession(Request{Workload: bad}); err == nil {
		t.Fatal("invalid workload should fail")
	}
	if _, err := NewSession(Request{
		Workload: workload.TPCC(),
		Rules:    knob.NewRules().Fix("no_such", 1),
	}); err == nil {
		t.Fatal("rules referencing unknown knobs should fail")
	}
}

// TestSessionRejectsNonFiniteProfile: a profile whose skew, class weight
// or measure fraction is not finite must fail session construction. A NaN
// or infinite Zipf exponent never accepts a draw, so before validation
// caught it the default-config stress test spun forever; the deadline turns
// such a regression into a failure instead of a hang.
func TestSessionRejectsNonFiniteProfile(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(p *workload.Profile)
	}{
		{"skew NaN", func(p *workload.Profile) { p.Skew = math.NaN() }},
		{"skew +Inf", func(p *workload.Profile) { p.Skew = math.Inf(1) }},
		{"weight NaN", func(p *workload.Profile) { p.Mix[0].Weight = math.NaN() }},
		{"measure fraction NaN", func(p *workload.Profile) { p.MeasureFraction = math.NaN() }},
	} {
		p := workload.TPCC()
		tc.mutate(p)
		done := make(chan error, 1)
		go func() {
			s, err := NewSession(Request{Workload: p, Budget: time.Hour, Seed: 1})
			if err == nil {
				s.Close()
			}
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil {
				t.Errorf("%s: NewSession accepted the profile", tc.name)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: NewSession still running after 10s", tc.name)
		}
	}
}

func TestEvaluateAddsToPoolAndCurve(t *testing.T) {
	s := newTestSession(t, 1, 10*time.Hour)
	smp, err := s.Evaluate(s.Space.Random(s.RNG))
	if err != nil {
		t.Fatal(err)
	}
	if s.Pool.Len() != 1 || s.Steps() != 1 {
		t.Fatalf("pool %d steps %d", s.Pool.Len(), s.Steps())
	}
	if smp.Time <= 0 || len(smp.Point) != s.Space.Dim() {
		t.Fatalf("sample incomplete: %+v", smp)
	}
	if len(s.Curve()) == 0 {
		t.Fatal("first sample should extend the curve (or a later one)")
	}
}

func TestBudgetExhaustion(t *testing.T) {
	s := newTestSession(t, 1, 20*time.Minute) // setup eats ~5–6 min
	var total int
	for i := 0; i < 100; i++ {
		_, err := s.Evaluate(s.Space.Random(s.RNG))
		if err != nil {
			if !errors.Is(err, ErrBudgetExhausted) {
				t.Fatal(err)
			}
			break
		}
		total++
	}
	if !s.Exhausted() {
		t.Fatal("session should be exhausted")
	}
	if total == 0 || total > 10 {
		t.Fatalf("20-minute budget allowed %d evaluations", total)
	}
	if s.Remaining() != 0 {
		t.Fatalf("remaining = %v", s.Remaining())
	}
}

func TestParallelWaveAccounting(t *testing.T) {
	// The same 20 configurations must cost several times less virtual
	// time on 5 clones than on 1. The speedup is below the ideal 5×
	// because each wave lasts as long as its slowest instance (restarts
	// and warm-ups differ per configuration).
	mkPoints := func(s *Session) [][]float64 {
		rng := sim.NewRNG(99)
		pts := make([][]float64, 20)
		for i := range pts {
			pts[i] = s.Space.Random(rng)
			// Keep every configuration bootable: a failed boot skips the
			// execution and would make serial steps artificially cheap.
			for d := range pts[i] {
				if pts[i][d] > 0.8 {
					pts[i][d] = 0.8
				}
			}
		}
		return pts
	}
	s1 := newTestSession(t, 1, 100*time.Hour)
	base1 := s1.Elapsed()
	if _, err := s1.EvaluateBatch(mkPoints(s1)); err != nil {
		t.Fatal(err)
	}
	serial := s1.Elapsed() - base1

	s5 := newTestSession(t, 5, 100*time.Hour)
	base5 := s5.Elapsed()
	if _, err := s5.EvaluateBatch(mkPoints(s5)); err != nil {
		t.Fatal(err)
	}
	parallel := s5.Elapsed() - base5

	ratio := float64(serial) / float64(parallel)
	if ratio < 2.8 || ratio > 5.5 {
		t.Fatalf("5-clone speedup %.2f, want ≈3–5 (serial %v parallel %v)", ratio, serial, parallel)
	}
}

func TestBootFailureScoring(t *testing.T) {
	s := newTestSession(t, 1, 10*time.Hour)
	// Force an impossible config: buffer pool at max (64 GB > 32 GB RAM).
	pt := s.Space.DefaultPoint()
	for i, name := range s.Space.Names() {
		if name == "innodb_buffer_pool_size" {
			pt[i] = 1
		}
	}
	before := s.Elapsed()
	smp, err := s.Evaluate(pt)
	if err != nil {
		t.Fatal(err)
	}
	if !smp.Perf.Failed || smp.Perf.ThroughputTPS != -1000 {
		t.Fatalf("boot failure not scored per §2.1: %+v", smp.Perf)
	}
	// Skipped execution: the step must cost far less than a full one.
	if cost := s.Elapsed() - before; cost > time.Minute {
		t.Fatalf("failed step cost %v, should skip the workload execution", cost)
	}
	if s.Fitness(smp.Perf) != -10 {
		t.Fatal("failed fitness should be the floor")
	}
}

func TestRulesEnforcedInEverySample(t *testing.T) {
	rules := knob.NewRules().
		Fix("innodb_adaptive_hash_index", 0).
		Range("innodb_buffer_pool_size", 1<<30, 8<<30)
	s, err := NewSession(Request{
		Workload: workload.SysbenchRW(),
		Budget:   8 * time.Hour,
		Rules:    rules,
		Seed:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	pts := make([][]float64, 8)
	for i := range pts {
		pts[i] = s.Space.Random(s.RNG)
	}
	if _, err := s.EvaluateBatch(pts); err != nil {
		t.Fatal(err)
	}
	for _, smp := range s.Pool.All() {
		if v := rules.Violations(s.Space.Catalog(), smp.Knobs); len(v) > 0 {
			t.Fatalf("sample violates rules: %v", v)
		}
	}
}

func TestDeployBest(t *testing.T) {
	s := newTestSession(t, 1, 10*time.Hour)
	if _, err := s.DeployBest(); err == nil {
		t.Fatal("deploy with empty pool should fail")
	}
	if _, err := s.Evaluate(s.Space.Random(s.RNG)); err != nil {
		t.Fatal(err)
	}
	best, err := s.DeployBest()
	if err != nil {
		t.Fatal(err)
	}
	// The user instance now runs the best config.
	for name, v := range best.Knobs {
		if got := s.User.Config().Get(name, v); got != v {
			t.Fatalf("user instance knob %s = %v, want %v", name, got, v)
		}
	}
}

func TestContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	s, err := NewSessionContext(ctx, Request{
		Workload: workload.TPCC(),
		Budget:   100 * time.Hour,
		Seed:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cancel()
	if !s.Exhausted() {
		t.Fatal("cancelled session should be exhausted")
	}
	if _, err := s.Evaluate(s.Space.Random(s.RNG)); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("expected budget error after cancel, got %v", err)
	}
}

func TestAlphaFromRules(t *testing.T) {
	s, err := NewSession(Request{
		Workload: workload.TPCC(),
		Budget:   time.Hour,
		Rules:    knob.NewRules().SetAlpha(0.9),
		Seed:     4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Alpha != 0.9 {
		t.Fatalf("alpha = %v", s.Alpha)
	}
	// Fitness with α=0.9 weights throughput 9:1.
	p := simdb.Perf{ThroughputTPS: s.DefaultPerf.ThroughputTPS * 2, P95LatencyMs: s.DefaultPerf.P95LatencyMs}
	if f := s.Fitness(p); f < 0.85 || f > 0.95 {
		t.Fatalf("fitness %v, want ≈0.9", f)
	}
}

func TestChargeModelUpdate(t *testing.T) {
	s := newTestSession(t, 1, time.Hour)
	before := s.Elapsed()
	s.ChargeModelUpdate()
	if s.Elapsed()-before != s.Costs.ModelUpdate {
		t.Fatal("model update not charged")
	}
}

func TestTail99Objective(t *testing.T) {
	s, err := NewSession(Request{
		Workload: workload.TPCC(),
		Budget:   time.Hour,
		Rules:    func() *knob.Rules { r := knob.NewRules(); r.OptimizeTail99(); return r }(),
		Seed:     5,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// A perf that improves p95 but regresses p99 must score worse under
	// the tail-99 objective than under the default.
	p := s.DefaultPerf
	p.P95LatencyMs *= 0.5
	p.P99LatencyMs *= 2
	f99 := s.Fitness(p)
	f95 := p.Fitness(s.DefaultPerf, s.Alpha)
	if f99 >= f95 {
		t.Fatalf("tail-99 objective should punish p99 regression: f99=%.3f f95=%.3f", f99, f95)
	}
}

func TestScheduleDriftValidation(t *testing.T) {
	s := newTestSession(t, 1, time.Hour)
	bad := &workload.Profile{}
	if err := s.ScheduleDrift(time.Minute, bad); err == nil {
		t.Fatal("invalid drift workload should be rejected")
	}
}

func TestDriftFiresAndResetsBest(t *testing.T) {
	s, err := NewSession(Request{
		Workload: workload.SysbenchRO(),
		Budget:   8 * time.Hour,
		Seed:     6,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.ScheduleDrift(s.Elapsed()+30*time.Minute, workload.SysbenchWO()); err != nil {
		t.Fatal(err)
	}
	var preBest Sample
	for i := 0; i < 14; i++ {
		if _, err := s.Evaluate(s.Space.Random(s.RNG)); err != nil {
			t.Fatal(err)
		}
		if !s.Drifted() {
			preBest, _ = s.Best()
		}
	}
	if !s.Drifted() {
		t.Fatal("drift never fired")
	}
	if s.Req.Workload.Name != "sysbench-wo" {
		t.Fatalf("workload not switched: %s", s.Req.Workload.Name)
	}
	post, ok := s.Best()
	if !ok {
		t.Fatal("no post-drift best")
	}
	if post.Time < s.Elapsed()-8*time.Hour && post.Step == preBest.Step {
		t.Fatal("post-drift best must come from post-drift samples")
	}
	for _, smp := range s.Pool.All() {
		if smp.Step == post.Step && smp.Time < 30*time.Minute {
			t.Fatal("post-drift best measured before the drift")
		}
	}
}

func TestEvaluateConfigsChargesErroringWave(t *testing.T) {
	s := newTestSession(t, 2, 100*time.Hour)
	// A healthy wave first, so the error wave below starts from a
	// non-trivial clock/pool state.
	warm := []knob.Config{
		s.Space.Decode(s.Space.Random(s.RNG)),
		s.Space.Decode(s.Space.Random(s.RNG)),
	}
	if _, err := s.EvaluateConfigs(warm); err != nil {
		t.Fatal(err)
	}
	before := s.Elapsed()
	poolBefore := s.Pool.Len()
	stepsBefore := s.Steps()

	// Swap in a workload that fails engine-side validation: every actor in
	// the wave deploys its knobs, then errors during the stress test.
	bad := *s.Req.Workload
	bad.Threads = 0
	s.Req.Workload = &bad

	out, err := s.EvaluateConfigs(warm)
	if err == nil {
		t.Fatal("invalid workload must surface the execution error")
	}
	if len(out) != 0 {
		t.Fatalf("erroring wave returned %d samples, want 0", len(out))
	}
	if s.Pool.Len() != poolBefore || s.Steps() != stepsBefore {
		t.Fatalf("erroring wave changed pool/steps: pool %d→%d steps %d→%d",
			poolBefore, s.Pool.Len(), stepsBefore, s.Steps())
	}
	// The erroring actors still occupied their instances through deployment
	// and knob recommendation, so the wave must charge at least that much
	// virtual time. (The old code returned before advancing the clock.)
	charged := s.Elapsed() - before
	min := s.Costs.KnobsDeployment + s.Costs.KnobsRecommendation
	if charged < min {
		t.Fatalf("erroring wave charged %v virtual time, want >= %v", charged, min)
	}
}

// BenchmarkEvaluateConfigsWave measures the hot loop every tuning step
// funds: one wave of configurations deployed and stress-tested across the
// cloned CDBs. The b.N loop reuses one session so engine scratch state
// (buffer pool, lock table, latency buffers, access plan) is exercised the
// way long tuning sessions exercise it.
func BenchmarkEvaluateConfigsWave(b *testing.B) {
	s, err := NewSession(Request{
		Workload: workload.TPCC(),
		Budget:   1 << 62, // effectively unbounded; the benchmark drives steps
		Clones:   4,
		Seed:     1,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	wave := make([]knob.Config, 4)
	for i := range wave {
		wave[i] = s.Space.Decode(s.Space.Random(s.RNG))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.EvaluateConfigs(wave); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluateConfigsDedup measures a wave of byte-identical
// configurations (the degenerate wave GA convergence produces) with and
// without wave dedup: dedup runs one stress test and fans the sample out.
func BenchmarkEvaluateConfigsDedup(b *testing.B) {
	for _, mode := range []struct {
		name string
		eval *EvalOptions
	}{
		{"off", nil},
		{"on", &EvalOptions{DedupWaves: true}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			s, err := NewSession(Request{
				Workload: workload.TPCC(),
				Budget:   1 << 62,
				Clones:   4,
				Seed:     1,
				Eval:     mode.eval,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			wave := make([]knob.Config, 4)
			for i := range wave {
				wave[i] = s.Space.Decode(s.Space.DefaultPoint())
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.EvaluateConfigs(wave); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
