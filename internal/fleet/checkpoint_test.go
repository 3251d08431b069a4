package fleet

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/hunter-cdb/hunter/internal/checkpoint"
)

// snapshotConfig is a fleet small enough to rerun per fuzz input: four
// one-hour tenants in rounds of two, under a fleet-wide budget.
func snapshotConfig(dir string) Config {
	return Config{
		Tenants:       SyntheticTenants(4, 2),
		Reuse:         true,
		Seed:          2,
		Policy:        Policy{MaxActive: 2, MaxTenantBudget: time.Hour, TotalVirtualBudget: 100 * time.Hour},
		CheckpointDir: dir,
	}
}

// stoppedSnapshot runs the fleet to its first round barrier and returns
// the checkpoint bytes it left behind.
func stoppedSnapshot(tb testing.TB) []byte {
	tb.Helper()
	cfg := snapshotConfig(tb.TempDir())
	cfg.StopAfterRounds = 1
	f, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	if err := f.Run(context.Background()); !errors.Is(err, ErrStopRequested) {
		tb.Fatalf("Run = %v, want ErrStopRequested", err)
	}
	data, err := os.ReadFile(f.CheckpointPath())
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// craftSnapshot writes data into a fresh checkpoint directory with the
// meta section edited by editMeta and, when moveTenant >= 0, the ID of
// result moveTenant set to newID. The container is re-encoded, so every
// CRC is valid.
func craftSnapshot(tb testing.TB, data []byte, editMeta func(*fleetMeta), moveTenant, newID int) string {
	tb.Helper()
	file, err := checkpoint.Decode(data)
	if err != nil {
		tb.Fatal(err)
	}
	w := checkpoint.NewWriter()
	for _, name := range file.Names() {
		raw, err := file.Bytes(name)
		if err != nil {
			tb.Fatal(err)
		}
		switch {
		case name == sectionMeta:
			var meta fleetMeta
			if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&meta); err != nil {
				tb.Fatal(err)
			}
			editMeta(&meta)
			var b bytes.Buffer
			if err := gob.NewEncoder(&b).Encode(meta); err != nil {
				tb.Fatal(err)
			}
			raw = b.Bytes()
		case moveTenant >= 0 && name == sectionResults:
			var results []TenantResult
			if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&results); err != nil {
				tb.Fatal(err)
			}
			results[moveTenant].ID = newID
			var b bytes.Buffer
			if err := gob.NewEncoder(&b).Encode(results); err != nil {
				tb.Fatal(err)
			}
			raw = b.Bytes()
		}
		if err := w.AddBytes(name, raw); err != nil {
			tb.Fatal(err)
		}
	}
	dir := tb.TempDir()
	if err := w.WriteFile(filepath.Join(dir, CheckpointFileName)); err != nil {
		tb.Fatal(err)
	}
	return dir
}

// TestResumeRejectsBadBookkeeping: a snapshot whose CRCs are valid but
// whose bookkeeping no run writes must fail Resume with an error naming
// the field, not panic in the resumed Run.
func TestResumeRejectsBadBookkeeping(t *testing.T) {
	data := stoppedSnapshot(t)
	keep := func(*fleetMeta) {}
	cases := []struct {
		field      string
		edit       func(*fleetMeta)
		moveTenant int
		newID      int
	}{
		{"Next", func(m *fleetMeta) { m.Run.Next = -1 }, -1, 0},
		{"Next", func(m *fleetMeta) { m.Run.Next = 5 }, -1, 0},
		{"Rounds", func(m *fleetMeta) { m.Run.Rounds = -1 }, -1, 0},
		{"Done", func(m *fleetMeta) { m.Run.Done = -1 }, -1, 0},
		{"Failed", func(m *fleetMeta) { m.Run.Failed = -1 }, -1, 0},
		{"Pool", func(m *fleetMeta) { m.Run.Pool = 101 * time.Hour }, -1, 0},
		{"result ID -1", keep, 0, -1},
		{"result ID 4", keep, 1, 4},
		{"result ID 0", keep, 1, 0},
	}
	for _, tc := range cases {
		dir := craftSnapshot(t, data, tc.edit, tc.moveTenant, tc.newID)
		_, err := Resume(snapshotConfig(dir))
		if err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: Resume err = %v, want an error naming %s", tc.field, err, tc.field)
		}
	}
	// The untouched snapshot still resumes and finishes.
	f, err := Resume(snapshotConfig(craftSnapshot(t, data, keep, -1, 0)))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestResumeRejectsOlderLayout: a meta section in the layout written
// before the format number existed — policy and progress fields at top
// level, no Format field — decodes with Format 0 and must be refused with
// an error that names the format, not resumed from zeroed progress.
func TestResumeRejectsOlderLayout(t *testing.T) {
	data := stoppedSnapshot(t)
	file, err := checkpoint.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	type olderLayout struct {
		Tenants            int
		TenantHash         uint64
		Seed               int64
		Reuse              bool
		MaxActive          int
		QueueDepth         int
		MaxTenantBudget    time.Duration
		TotalVirtualBudget time.Duration
		Rounds             int
		Next               int
		Pool               time.Duration
		ReuseProbes        int
		ReuseHits          int
		ReuseStores        int
		Done               int
		Failed             int
	}
	w := checkpoint.NewWriter()
	for _, name := range file.Names() {
		raw, err := file.Bytes(name)
		if err != nil {
			t.Fatal(err)
		}
		if name == sectionMeta {
			var m fleetMeta
			if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&m); err != nil {
				t.Fatal(err)
			}
			old := olderLayout{
				Tenants: m.Tenants, TenantHash: m.TenantHash, Seed: m.Seed, Reuse: m.Reuse,
				MaxActive: m.Policy.MaxActive, QueueDepth: m.Policy.QueueDepth,
				MaxTenantBudget: m.Policy.MaxTenantBudget, TotalVirtualBudget: m.Policy.TotalVirtualBudget,
				Rounds: m.Run.Rounds, Next: m.Run.Next, Pool: m.Run.Pool, ReuseProbes: m.Run.ReuseProbes,
				ReuseHits: m.Run.ReuseHits, ReuseStores: m.Run.ReuseStores, Done: m.Run.Done, Failed: m.Run.Failed,
			}
			var b bytes.Buffer
			if err := gob.NewEncoder(&b).Encode(old); err != nil {
				t.Fatal(err)
			}
			raw = b.Bytes()
		}
		if err := w.AddBytes(name, raw); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	path := filepath.Join(dir, CheckpointFileName)
	if err := w.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := Resume(snapshotConfig(dir)); err == nil || !strings.Contains(err.Error(), "format 0") ||
		!strings.Contains(err.Error(), "incompatible version") {
		t.Fatalf("Resume err = %v, want an incompatible-format error", err)
	}
	if _, err := PeekCheckpoint(path); err == nil || !strings.Contains(err.Error(), "format 0") {
		t.Fatalf("PeekCheckpoint err = %v, want an incompatible-format error", err)
	}
}

// FuzzFleetResume overwrites a real snapshot's decoded bookkeeping with
// fuzz inputs and re-wraps it under valid CRCs (fuzzing raw bytes never
// gets past the CRC). Resume must return an error, or the resumed fleet
// must run to the end without panicking.
func FuzzFleetResume(f *testing.F) {
	data := stoppedSnapshot(f)
	f.Add(2, 1, int64(98*time.Hour), 2, 0, 0)
	f.Add(-1, 1, int64(98*time.Hour), 2, 0, 0)
	f.Add(2, -1, int64(0), -1, -1, 7)
	f.Add(9, 1, int64(200*time.Hour), 2, 0, -3)
	f.Fuzz(func(t *testing.T, next, rounds int, pool int64, done, failed, tenantID int) {
		dir := craftSnapshot(t, data, func(m *fleetMeta) {
			m.Run.Next, m.Run.Rounds, m.Run.Pool, m.Run.Done, m.Run.Failed = next, rounds, time.Duration(pool), done, failed
		}, 0, tenantID)
		fl, err := Resume(snapshotConfig(dir))
		if err != nil {
			return
		}
		if err := fl.Run(context.Background()); err != nil {
			t.Fatalf("resumed fleet: %v", err)
		}
		var buf bytes.Buffer
		fl.Report().Render(&buf)
	})
}
