package main

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/hunter-cdb/hunter"
	"github.com/hunter-cdb/hunter/internal/fleet"
	"github.com/hunter-cdb/hunter/internal/parallel"
)

// TestBaselineDiffGate reruns the committed baseline's run and requires
// diff to find no phase-cost regression against it: a change that
// inflates a deterministic per-session or per-step virtual cost fails
// here. The run is what examples/baselines/README.md records:
// hunter-tune -workload tpcc -budget 2h -clones 2 -seed 5 (type F, α 0.5).
func TestBaselineDiffGate(t *testing.T) {
	typ, err := hunter.InstanceTypeByName("F")
	if err != nil {
		t.Fatal(err)
	}
	rec := hunter.NewRecorder()
	if _, err := hunter.Tune(hunter.Request{
		Dialect:  hunter.MySQL,
		Type:     typ,
		Workload: hunter.TPCC(),
		Rules:    hunter.NewRules().SetAlpha(0.5),
		Budget:   2 * time.Hour,
		Clones:   2,
		Seed:     5,
		Recorder: rec,
	}); err != nil {
		t.Fatal(err)
	}
	fresh := filepath.Join(t.TempDir(), "report.json")
	if err := rec.WriteFiles("", "", fresh); err != nil {
		t.Fatal(err)
	}
	baseline := filepath.Join("..", "..", "examples", "baselines", "tpcc-2h-report.json")
	if code := run([]string{"diff", baseline, fresh}); code != 0 {
		t.Fatalf("diff against the committed baseline exited %d, want 0", code)
	}
}

// TestFleetArtifacts drives the inspector over what a fleet run leaves
// behind: its snapshot and its report are analyzed, and reports taken at
// workers 1 and 8 diff clean.
func TestFleetArtifacts(t *testing.T) {
	dir := t.TempDir()
	report := func(workers int) string {
		defer parallel.SetWorkers(parallel.SetWorkers(workers))
		f, err := fleet.New(fleet.Config{
			Tenants:       fleet.SyntheticTenants(6, 11),
			Reuse:         true,
			Seed:          11,
			Policy:        fleet.Policy{MaxActive: 3},
			CheckpointDir: filepath.Join(dir, "ckpt"),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, fmt.Sprintf("fleet-w%d.json", workers))
		if err := f.Report().WriteJSON(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	w1, w8 := report(1), report(8)

	var sb strings.Builder
	if err := inspectFleetReport(&sb, w1); err != nil {
		t.Fatal(err)
	}
	if err := inspectCheckpoint(&sb, filepath.Join(dir, "ckpt", fleet.CheckpointFileName)); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"fleet report", "6 tenant(s)", "integrity OK", "fleet snapshot", "resume point: round 2"} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("fleet inspection missing %q:\n%s", want, sb.String())
		}
	}
	if code := run([]string{"diff", w1, w8}); code != 0 {
		t.Fatalf("diff of fleet reports at workers 1 and 8 exited %d, want 0", code)
	}
}
