package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/hunter-cdb/hunter/internal/telemetry"
	"github.com/hunter-cdb/hunter/internal/tuner"
	"github.com/hunter-cdb/hunter/internal/workload"
)

// buildArtifacts runs a tiny real session and exports its trace, report
// and checkpoint — the inspector is tested against the real writers, not
// hand-rolled fixtures.
func buildArtifacts(t *testing.T) (tracePath, reportPath, ckptPath string) {
	t.Helper()
	dir := t.TempDir()
	rec := telemetry.New()
	s, err := tuner.NewSession(tuner.Request{
		Workload:   workload.TPCC(),
		Budget:     time.Hour,
		Clones:     2,
		Seed:       11,
		Recorder:   rec,
		Checkpoint: &tuner.CheckpointPolicy{Dir: dir},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 3; i++ {
		batch := make([][]float64, len(s.Clones))
		for j := range batch {
			batch[j] = s.Space.Random(s.RNG)
		}
		if _, err := s.EvaluateBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.WriteCheckpoint(nil); err != nil {
		t.Fatal(err)
	}
	tracePath = filepath.Join(dir, "trace.jsonl")
	tf, err := os.Create(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.WriteTrace(tf); err != nil {
		t.Fatal(err)
	}
	tf.Close()
	reportPath = filepath.Join(dir, "report.json")
	rf, err := os.Create(reportPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.WriteReport(rf); err != nil {
		t.Fatal(err)
	}
	rf.Close()
	return tracePath, reportPath, filepath.Join(dir, tuner.CheckpointFileName)
}

func TestDetectKind(t *testing.T) {
	tracePath, reportPath, ckptPath := buildArtifacts(t)
	cases := []struct {
		path string
		want fileKind
	}{
		{tracePath, kindTrace},
		{reportPath, kindReport},
		{ckptPath, kindCheckpoint},
	}
	for _, c := range cases {
		got, err := detectKind(c.path)
		if err != nil {
			t.Fatalf("detectKind(%s): %v", c.path, err)
		}
		if got != c.want {
			t.Fatalf("detectKind(%s) = %v, want %v", c.path, got, c.want)
		}
	}
	junk := filepath.Join(t.TempDir(), "junk.txt")
	os.WriteFile(junk, []byte("hello"), 0o644)
	if _, err := detectKind(junk); err == nil {
		t.Fatalf("detectKind accepted junk")
	}
}

func TestInspectTraceBreakdown(t *testing.T) {
	tracePath, _, _ := buildArtifacts(t)
	var sb strings.Builder
	if err := inspectTrace(&sb, tracePath); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	// The Table-1-style breakdown must attribute the dominant steps.
	for _, want := range []string{"step breakdown", "stress_wave", "warmup_stress", "clone_fleet", "wave timeline"} {
		if !strings.Contains(out, want) {
			t.Fatalf("trace output missing %q:\n%s", want, out)
		}
	}
}

func TestInspectReportAndCheckpoint(t *testing.T) {
	_, reportPath, ckptPath := buildArtifacts(t)
	var sb strings.Builder
	if err := inspectReport(&sb, reportPath); err != nil {
		t.Fatal(err)
	}
	if out := sb.String(); !strings.Contains(out, "step breakdown") ||
		!strings.Contains(out, "tuner.stress_waves") ||
		!strings.Contains(out, "histograms (virtual seconds)") {
		t.Fatalf("report output incomplete:\n%s", out)
	}
	sb.Reset()
	if err := inspectCheckpoint(&sb, ckptPath); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"integrity OK", "session", "provider", "telemetry", "resume point: wave 3"} {
		if !strings.Contains(out, want) {
			t.Fatalf("checkpoint output missing %q:\n%s", want, out)
		}
	}
}

func TestDiffReports(t *testing.T) {
	base := &telemetry.Report{
		Schema: telemetry.ReportSchema,
		Sessions: []telemetry.SessionReport{{
			ID: 1, Name: "mysql/tpcc", VirtualSeconds: 100,
			StepSeconds: map[string]float64{"stress_wave": 80, "model_update": 20},
		}},
		Counters: map[string]int64{"tuner.stress_waves": 10},
	}
	clone := func() *telemetry.Report {
		data, _ := json.Marshal(base)
		var r telemetry.Report
		json.Unmarshal(data, &r) //nolint:errcheck
		return &r
	}

	// Identical reports: clean.
	if regs, notes := diffReports(base, clone(), 0.01); len(regs) != 0 || len(notes) != 0 {
		t.Fatalf("identical reports diff dirty: %v %v", regs, notes)
	}

	// Within tolerance: clean.
	next := clone()
	next.Sessions[0].StepSeconds["stress_wave"] = 80.5
	if regs, _ := diffReports(base, next, 0.01); len(regs) != 0 {
		t.Fatalf("within-tolerance growth flagged: %v", regs)
	}

	// A doubled phase cost must be flagged (the injected-regression case).
	next = clone()
	next.Sessions[0].StepSeconds["stress_wave"] = 160
	regs, _ := diffReports(base, next, 0.01)
	if len(regs) != 1 || !strings.Contains(regs[0].what, "stress_wave") {
		t.Fatalf("doubled step not flagged: %v", regs)
	}

	// Shrinkage is not a regression.
	next = clone()
	next.Sessions[0].StepSeconds["stress_wave"] = 40
	if regs, _ := diffReports(base, next, 0.01); len(regs) != 0 {
		t.Fatalf("shrinkage flagged: %v", regs)
	}

	// Virtual total growth is flagged on its own.
	next = clone()
	next.Sessions[0].VirtualSeconds = 130
	regs, _ = diffReports(base, next, 0.01)
	if len(regs) != 1 || !strings.Contains(regs[0].what, "virtual_seconds") {
		t.Fatalf("virtual growth not flagged: %v", regs)
	}

	// Counter drift is a note, not a regression.
	next = clone()
	next.Counters["tuner.stress_waves"] = 12
	regs, notes := diffReports(base, next, 0.01)
	if len(regs) != 0 || len(notes) != 1 || !strings.Contains(notes[0], "10 -> 12") {
		t.Fatalf("counter drift handling wrong: %v %v", regs, notes)
	}
}

// TestRunDiffExitCodes drives the subcommand end to end through run(),
// including the injected-regression gate.
func TestRunDiffExitCodes(t *testing.T) {
	_, reportPath, _ := buildArtifacts(t)
	dir := t.TempDir()

	// Same report on both sides: exit 0.
	if code := run([]string{"diff", reportPath, reportPath}); code != 0 {
		t.Fatalf("self-diff exit %d, want 0", code)
	}

	// Inject a phase-cost regression: exit 1.
	rep, err := loadReport(reportPath)
	if err != nil {
		t.Fatal(err)
	}
	rep.Sessions[0].StepSeconds["stress_wave"] *= 2
	rep.Sessions[0].VirtualSeconds *= 1.5
	data, _ := json.Marshal(rep)
	regressed := filepath.Join(dir, "regressed.json")
	if err := os.WriteFile(regressed, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{"diff", reportPath, regressed}); code != 1 {
		t.Fatalf("regressed diff exit %d, want 1", code)
	}
	if code := run([]string{"diff", "-tol", "0.02", reportPath, regressed}); code != 1 {
		t.Fatalf("regressed diff with -tol exit %d, want 1", code)
	}

	// Usage errors: exit 2.
	if code := run([]string{"diff", reportPath}); code != 2 {
		t.Fatalf("one-arg diff exit %d, want 2", code)
	}
	if code := run([]string{}); code != 2 {
		t.Fatalf("no-arg exit %d, want 2", code)
	}
	if code := run([]string{"diff", "/nonexistent.json", reportPath}); code != 2 {
		t.Fatalf("missing file diff exit %d, want 2", code)
	}

	// Analyze mode end to end: exit 0 on each artifact type.
	if code := run([]string{reportPath}); code != 0 {
		t.Fatalf("report analyze exit %d", code)
	}
}
