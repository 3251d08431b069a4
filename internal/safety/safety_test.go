package safety

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"github.com/hunter-cdb/hunter/internal/simdb"
)

func newTestGuard(t *testing.T, opts Options) *Guard {
	t.Helper()
	g, err := NewGuard(opts)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func perf(tps, p99 float64) simdb.Perf {
	return simdb.Perf{ThroughputTPS: tps, AvgLatencyMs: p99 / 2, P95LatencyMs: p99 * 0.8, P99LatencyMs: p99}
}

func TestOptionsValidate(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	bad := []Options{
		{Margin: 1.5},
		{Margin: -0.1},
		{Margin: nan},
		{SLOP99Ms: -1},
		{SLOP99Ms: nan},
		{SLOP99Ms: inf},
		{SLOFloorTPS: -1},
		{SLOFloorTPS: nan},
		{SLOFloorTPS: inf},
		{DriftThreshold: -0.1},
		{DriftThreshold: nan},
		{DriftThreshold: inf},
		{DriftWindow: -1},
	}
	for _, o := range bad {
		if _, err := NewGuard(o); err == nil {
			t.Fatalf("options %+v should be rejected", o)
		}
	}
	if _, err := NewGuard(Options{}); err != nil {
		t.Fatalf("zero options should default to valid: %v", err)
	}
}

// FuzzOptionsValidate checks that Validate is the guard's only gate: any
// option set it accepts yields a guard whose margin guardrail still blocks
// a canary and flags a monitor probe at half the margin floor, and any
// set it rejects fails NewGuard.
func FuzzOptionsValidate(f *testing.F) {
	f.Add(true, 0.0, 0.0, 0.0, 0.0, 0)
	f.Add(true, 0.1, 50.0, 80.0, 0.3, 2)
	f.Add(true, math.NaN(), 0.0, 0.0, 0.0, 0)
	f.Add(false, 0.05, math.Inf(1), -1.0, math.NaN(), -1)
	f.Fuzz(func(t *testing.T, guardrails bool, margin, p99, floor, drift float64, window int) {
		o := Options{Guardrails: guardrails, Margin: margin, SLOP99Ms: p99,
			SLOFloorTPS: floor, DriftThreshold: drift, DriftWindow: window}
		g, err := NewGuard(o)
		if o.Validate() != nil {
			if err == nil {
				t.Fatalf("NewGuard accepted options Validate rejects: %+v", o)
			}
			return
		}
		if err != nil {
			t.Fatalf("NewGuard rejected valid options %+v: %v", o, err)
		}
		// The baseline sits far enough above the throughput floor that the
		// low canary clears every SLO and only the margin can block it.
		m := g.Options().Margin
		baseline := 1e6
		if floor > 0 {
			baseline = 4 * floor / (1 - m)
		}
		if math.IsInf(baseline, 0) {
			t.Skip("floor too large to place a baseline above it")
		}
		low := perf(baseline*(1-m)/2, 0)
		if ok, reason := g.GateDeploy(low, baseline); ok || reason != "baseline_margin" {
			t.Fatalf("canary at half the margin floor: gate (%v,%q), want baseline_margin: %+v", ok, reason, o)
		}
		for i := 0; i < 3; i++ {
			g.ObserveMonitor(perf(baseline, 0))
		}
		if v := g.ObserveMonitor(low); !v.Violation || !v.BelowBaseline {
			t.Fatalf("probe at half the margin floor not a violation: %+v, %+v", o, v)
		}
	})
}

func TestClampStep(t *testing.T) {
	g := newTestGuard(t, Options{})
	got, clamped := g.ClampStep([]float64{0.5, 0.5, 0.05}, []float64{0.9, 0.45, -0.2})
	if !clamped {
		t.Fatal("expected clamping")
	}
	want := []float64{0.5 + TrustRadius, 0.45, 0}
	for i := range want {
		if diff := got[i] - want[i]; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("dim %d: got %g want %g", i, got[i], want[i])
		}
	}
	got, clamped = g.ClampStep([]float64{0.5}, []float64{0.55})
	if clamped || got[0] != 0.55 {
		t.Fatalf("in-region step should pass through, got %v clamped=%v", got, clamped)
	}
}

func TestAggregateMedianAndMajority(t *testing.T) {
	g := newTestGuard(t, Options{})
	med, ok := g.Aggregate([]simdb.Perf{perf(300, 10), perf(100, 10), perf(200, 10)})
	if !ok || med.ThroughputTPS != 200 {
		t.Fatalf("median of 100/200/300 should be 200, got %v ok=%v", med.ThroughputTPS, ok)
	}
	// Even count takes the pessimistic lower median.
	med, ok = g.Aggregate([]simdb.Perf{perf(100, 10), perf(200, 10), perf(300, 10), perf(400, 10)})
	if !ok || med.ThroughputTPS != 200 {
		t.Fatalf("lower median of 4 should be 200, got %v ok=%v", med.ThroughputTPS, ok)
	}
	// Failed replicas are dropped; a strict majority of survivors is required.
	med, ok = g.Aggregate([]simdb.Perf{perf(100, 10), simdb.FailedPerf(), perf(300, 10)})
	if !ok || med.ThroughputTPS != 100 {
		t.Fatalf("2-of-3 survivors should aggregate to 100, got %v ok=%v", med.ThroughputTPS, ok)
	}
	if _, ok := g.Aggregate([]simdb.Perf{perf(100, 10), simdb.FailedPerf()}); ok {
		t.Fatal("1-of-2 survivors is not a majority")
	}
}

func TestGateDeploy(t *testing.T) {
	g := newTestGuard(t, Options{SLOP99Ms: 50, SLOFloorTPS: 80, Margin: 0.1})
	cases := []struct {
		p        simdb.Perf
		baseline float64
		ok       bool
		reason   string
	}{
		{perf(200, 20), 190, true, ""},
		{simdb.FailedPerf(), 0, false, "canary_failed"},
		{perf(200, 60), 0, false, "slo_p99"},
		{perf(50, 20), 0, false, "slo_tps"},
		{perf(100, 20), 200, false, "baseline_margin"},
		{perf(100, 20), 0, true, ""}, // empty window skips the baseline check
	}
	for i, c := range cases {
		ok, reason := g.GateDeploy(c.p, c.baseline)
		if ok != c.ok || reason != c.reason {
			t.Fatalf("case %d: got (%v,%q) want (%v,%q)", i, ok, reason, c.ok, c.reason)
		}
	}
}

func TestMonitorViolationsAndRollback(t *testing.T) {
	g := newTestGuard(t, Options{Guardrails: true, Margin: 0.1})
	// Healthy probes establish the baseline.
	for i := 0; i < 3; i++ {
		if v := g.ObserveMonitor(perf(200, 20)); v.Violation {
			t.Fatalf("healthy probe %d flagged", i)
		}
	}
	v := g.ObserveMonitor(perf(100, 20))
	if !v.Violation || !v.BelowBaseline || v.RollbackDue {
		t.Fatalf("first dip: want violation without rollback, got %+v", v)
	}
	v = g.ObserveMonitor(perf(100, 20))
	if !v.RollbackDue {
		t.Fatalf("second consecutive dip should trigger rollback, got %+v", v)
	}
	// A healthy probe in between resets the run.
	g.NoteRollback([]float64{0.5}, 200)
	g.ObserveMonitor(perf(100, 20))
	g.ObserveMonitor(perf(200, 20))
	if v := g.ObserveMonitor(perf(100, 20)); v.RollbackDue {
		t.Fatal("non-consecutive violations must not trigger rollback")
	}
}

func TestMonitorSLOBreach(t *testing.T) {
	g := newTestGuard(t, Options{Guardrails: true, SLOP99Ms: 50})
	for i := 1; i <= ViolationLimit; i++ {
		v := g.ObserveMonitor(perf(500, 80))
		if !v.SLOBreach || v.RollbackDue != (i == ViolationLimit) {
			t.Fatalf("breach %d: p99 80ms over 50ms ceiling should breach, rolling back at the limit, got %+v", i, v)
		}
	}
	if g.Counts().SLOViolations != ViolationLimit {
		t.Fatalf("slo violation not counted: %+v", g.Counts())
	}
}

func TestDriftDetection(t *testing.T) {
	g := newTestGuard(t, Options{DriftThreshold: 0.3, DriftWindow: 2})
	for i := 0; i < 4; i++ {
		g.ObserveMonitor(perf(200, 20))
	}
	if v := g.ObserveMonitor(perf(120, 20)); v.DriftDetected {
		t.Fatal("one divergent probe should not confirm drift")
	}
	if v := g.ObserveMonitor(perf(120, 20)); !v.DriftDetected {
		t.Fatal("two consecutive divergent probes should confirm drift")
	}
	g.NoteDrift()
	if g.Baseline() != 0 {
		t.Fatal("NoteDrift should clear the baseline window")
	}
	// Upward divergence counts too (the workload got lighter).
	for i := 0; i < 4; i++ {
		g.ObserveMonitor(perf(200, 20))
	}
	g.ObserveMonitor(perf(300, 20))
	if v := g.ObserveMonitor(perf(300, 20)); !v.DriftDetected {
		t.Fatal("upward divergence should also confirm drift")
	}
}

func TestRadiusWidenShrinkBounds(t *testing.T) {
	g := newTestGuard(t, Options{})
	g.NoteDeploy(100)
	if want := TrustRadius * RadiusWiden; g.Radius() != want {
		t.Fatalf("widen: got %g want %g", g.Radius(), want)
	}
	for i := 0; i < 20; i++ {
		g.NoteDeploy(100)
	}
	if g.Radius() != RadiusMax {
		t.Fatalf("widen capped at max: got %g want %g", g.Radius(), RadiusMax)
	}
	for i := 0; i < 20; i++ {
		g.NoteBlock("k")
	}
	if g.Radius() != RadiusMin {
		t.Fatalf("shrink floored at min: got %g want %g", g.Radius(), RadiusMin)
	}
}

func TestBlockedClearsOnRollbackAndDrift(t *testing.T) {
	g := newTestGuard(t, Options{})
	g.NoteBlock("a")
	if !g.Blocked("a") || g.Blocked("b") {
		t.Fatal("block bookkeeping wrong")
	}
	g.NoteRollback(nil, 0)
	if g.Blocked("a") {
		t.Fatal("rollback should clear blocked keys")
	}
	g.NoteBlock("c")
	g.NoteDrift()
	if g.Blocked("c") {
		t.Fatal("drift should clear blocked keys")
	}
}

func TestQuarantine(t *testing.T) {
	g := newTestGuard(t, Options{})
	g.NoteRollback([]float64{0.5, 0.5}, 100)
	if !g.InQuarantine([]float64{0.5 + QuarantineRadius/2, 0.5 - QuarantineRadius/2}) {
		t.Fatal("point inside the quarantined ball not flagged")
	}
	if g.InQuarantine([]float64{0.7, 0.5}) {
		t.Fatal("point outside the quarantined ball flagged")
	}
	if g.InQuarantine([]float64{0.5}) {
		t.Fatal("dimension mismatch must not match")
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	g := newTestGuard(t, Options{Guardrails: true, DriftThreshold: 0.3})
	for i := 0; i < 5; i++ {
		g.ObserveMonitor(perf(float64(150+10*i), 20))
	}
	g.NoteCanary()
	g.NoteBlock("cand-1")
	g.NoteBlock("cand-2")
	g.NoteDeploy(210)
	g.ObserveMonitor(perf(100, 20))
	g.NoteRollback([]float64{0.3, 0.7}, 200)
	g.NoteBlock("cand-3")

	st := g.Snapshot()
	h := newTestGuard(t, g.Options())
	h.Restore(st)
	if !reflect.DeepEqual(st, h.Snapshot()) {
		t.Fatalf("snapshot round-trip diverged:\n%+v\n%+v", st, h.Snapshot())
	}
	if h.Radius() != g.Radius() || h.Baseline() != g.Baseline() || !h.Blocked("cand-3") {
		t.Fatal("restored guard behaves differently")
	}
	if !h.InQuarantine([]float64{0.3, 0.7}) {
		t.Fatal("restored guard lost quarantine")
	}
}

func TestReportSummary(t *testing.T) {
	g := newTestGuard(t, Options{Guardrails: true})
	g.NoteCanary()
	g.NoteDeploy(100)
	s := g.ReportNow().Summary()
	for _, want := range []string{"guardrails on", "canary waves:     1", "online deploys:   1"} {
		if !strings.Contains(s, want) {
			t.Fatalf("summary missing %q:\n%s", want, s)
		}
	}
}
