package tuner

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
	"github.com/hunter-cdb/hunter/internal/sim"
	"github.com/hunter-cdb/hunter/internal/simdb"
	"github.com/hunter-cdb/hunter/internal/telemetry"
	"github.com/hunter-cdb/hunter/internal/workload"
)

// ckptRequest is the fixed fingerprint the checkpoint round-trip tests
// run under.
func ckptRequest(dir string) Request {
	return Request{
		Workload:   workload.TPCC(),
		Budget:     2 * time.Hour,
		Clones:     2,
		Seed:       11,
		Checkpoint: &CheckpointPolicy{Dir: dir},
	}
}

// writeTestCheckpoint runs a session through a couple of waves and
// snapshots it.
func writeTestCheckpoint(t *testing.T, dir string) *Session {
	t.Helper()
	s, err := NewSession(ckptRequest(dir))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	for i := 0; i < 2; i++ {
		if _, err := s.EvaluateBatch([][]float64{s.Space.Random(s.RNG), s.Space.Random(s.RNG)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.WriteCheckpoint(nil); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSessionCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := writeTestCheckpoint(t, dir)
	path := s.CheckpointPath()

	wave, clock, err := PeekCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if wave != s.WaveCount() || clock != s.Elapsed() {
		t.Fatalf("peek (%d, %v), session has (%d, %v)", wave, clock, s.WaveCount(), s.Elapsed())
	}

	r, f, err := ResumeSession(context.Background(), ckptRequest(dir), path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if f == nil {
		t.Fatal("no checkpoint file returned")
	}
	if r.WaveCount() != s.WaveCount() || r.Steps() != s.Steps() || r.Elapsed() != s.Elapsed() {
		t.Fatalf("resumed (%d waves, %d steps, %v) != original (%d, %d, %v)",
			r.WaveCount(), r.Steps(), r.Elapsed(), s.WaveCount(), s.Steps(), s.Elapsed())
	}
	if r.Pool.Len() != s.Pool.Len() {
		t.Fatalf("resumed pool %d != original %d", r.Pool.Len(), s.Pool.Len())
	}
	if got, want := r.RNG.Int63(), s.RNG.Int63(); got != want {
		t.Fatalf("resumed RNG stream diverges: %d != %d", got, want)
	}
	if len(r.Clones) != len(s.Clones) || r.User == nil {
		t.Fatal("fleet not reconnected")
	}
	// The resumed session must be fully usable.
	if _, err := r.EvaluateBatch([][]float64{r.Space.Random(r.RNG)}); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointHistogramRoundTrip extends the resume-identity contract
// to histograms: a restored recorder's full text exposition — counters,
// gauges AND histogram buckets — must match the original byte for byte,
// exactly as a restarted process would reconstruct it.
func TestCheckpointHistogramRoundTrip(t *testing.T) {
	dir := t.TempDir()
	req := ckptRequest(dir)
	req.Recorder = telemetry.New()
	s, err := NewSession(req)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 2; i++ {
		if _, err := s.EvaluateBatch([][]float64{s.Space.Random(s.RNG), s.Space.Random(s.RNG)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.WriteCheckpoint(nil); err != nil {
		t.Fatal(err)
	}
	var orig bytes.Buffer
	if err := req.Recorder.WriteText(&orig); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(orig.String(), "tuner.wave_seconds_count 2") {
		t.Fatalf("session did not populate wave histogram:\n%s", orig.String())
	}

	req2 := ckptRequest(dir)
	req2.Recorder = telemetry.New()
	r, _, err := ResumeSession(context.Background(), req2, s.CheckpointPath())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var restored bytes.Buffer
	if err := req2.Recorder.WriteText(&restored); err != nil {
		t.Fatal(err)
	}
	if orig.String() != restored.String() {
		t.Fatalf("restored exposition differs:\n--- original\n%s--- restored\n%s", orig.String(), restored.String())
	}
}

func TestResumeFingerprintMismatch(t *testing.T) {
	dir := t.TempDir()
	s := writeTestCheckpoint(t, dir)
	path := s.CheckpointPath()

	cases := []struct {
		name   string
		mutate func(*Request)
		want   string
	}{
		{"seed", func(r *Request) { r.Seed = 99 }, "seed"},
		{"clones", func(r *Request) { r.Clones = 5 }, "clones"},
		{"budget", func(r *Request) { r.Budget = time.Hour }, "budget"},
		{"workload", func(r *Request) { r.Workload = workload.SysbenchRO() }, "workload"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := ckptRequest(dir)
			tc.mutate(&req)
			_, _, err := ResumeSession(context.Background(), req, path)
			if err == nil {
				t.Fatal("mismatched request accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name the mismatched field %q", err, tc.want)
			}
		})
	}
}

// TestResumeCorruptCheckpoint verifies resume fails closed on damaged
// files: truncation, bit flips and bad magic are all rejected before any
// state is handed out.
func TestResumeCorruptCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s := writeTestCheckpoint(t, dir)
	good, err := os.ReadFile(s.CheckpointPath())
	if err != nil {
		t.Fatal(err)
	}
	try := func(name string, data []byte) {
		t.Helper()
		path := filepath.Join(t.TempDir(), CheckpointFileName)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := ResumeSession(context.Background(), ckptRequest(dir), path); err == nil {
			t.Fatalf("%s: corrupt checkpoint accepted", name)
		}
		if _, _, err := PeekCheckpoint(path); err == nil {
			t.Fatalf("%s: corrupt checkpoint peeked", name)
		}
	}
	for _, cut := range []int{0, 4, len(good) / 2, len(good) - 1} {
		try("truncated", good[:cut])
	}
	bad := append([]byte(nil), good...)
	bad[0] ^= 0xff
	try("bad magic", bad)
	bad = append([]byte(nil), good...)
	bad[len(bad)/2] ^= 0x10
	try("bit flip", bad)
	if _, _, err := ResumeSession(context.Background(), ckptRequest(dir),
		filepath.Join(t.TempDir(), CheckpointFileName)); err == nil {
		t.Fatal("missing checkpoint accepted")
	}
}

// driftCheckpoint is a snapshot of a session with a two-entry drift queue,
// neither entry fired yet.
func driftCheckpoint(tb testing.TB) []byte {
	tb.Helper()
	dir := tb.TempDir()
	s, err := NewSession(ckptRequest(dir))
	if err != nil {
		tb.Fatal(err)
	}
	defer s.Close()
	for i, p := range []*workload.Profile{workload.SysbenchRO(), workload.SysbenchWO()} {
		if err := s.ScheduleDrift(time.Duration(i+1)*45*time.Minute, p); err != nil {
			tb.Fatal(err)
		}
	}
	if _, err := s.EvaluateBatch([][]float64{s.Space.Random(s.RNG), s.Space.Random(s.RNG)}); err != nil {
		tb.Fatal(err)
	}
	if err := s.WriteCheckpoint(nil); err != nil {
		tb.Fatal(err)
	}
	data, err := os.ReadFile(s.CheckpointPath())
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// craftCheckpoint re-encodes a snapshot with its session state edited,
// under valid CRCs, and returns the new file's path.
func craftCheckpoint(tb testing.TB, data []byte, edit func(*sessionState)) string {
	tb.Helper()
	return rewrapSession(tb, data, func(st *sessionState) any {
		edit(st)
		return st
	})
}

// rewrapSession re-encodes a snapshot with its session section replaced
// by the gob encoding of layout(decoded state), under valid CRCs, and
// returns the new file's path.
func rewrapSession(tb testing.TB, data []byte, layout func(*sessionState) any) string {
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
		if name == sectionSession {
			var st sessionState
			if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&st); err != nil {
				tb.Fatal(err)
			}
			var b bytes.Buffer
			if err := gob.NewEncoder(&b).Encode(layout(&st)); err != nil {
				tb.Fatal(err)
			}
			raw = b.Bytes()
		}
		if err := w.AddBytes(name, raw); err != nil {
			tb.Fatal(err)
		}
	}
	path := filepath.Join(tb.TempDir(), CheckpointFileName)
	if err := w.WriteFile(path); err != nil {
		tb.Fatal(err)
	}
	return path
}

// TestResumeRejectsOlderLayout: a session section in the layout written
// before the format number existed — progress counters at top level, no
// Format field — decodes with Format 0 and must be refused with an error
// that names the format, not resumed from zeroed progress.
func TestResumeRejectsOlderLayout(t *testing.T) {
	data := driftCheckpoint(t)
	type olderLayout struct {
		Dialect     simdb.Dialect
		TypeName    string
		Workload    string
		KnobNames   []string
		Seed        int64
		Clones      int
		Budget      time.Duration
		Alpha       float64
		Clock       time.Duration
		Steps       int
		WaveCount   int
		BestFit     float64
		DefaultPerf simdb.Perf
		Curve       Curve
		Samples     []Sample
		RNG         sim.RNGState
		CurWorkload *workload.Profile
		DriftQueue  []scheduledDrift
		DriftIdx    int
		BestSince   time.Duration
		UserID      string
		CloneIDs    []string
		ActorIDs    []int
		ActorSeqs   []int64
	}
	path := rewrapSession(t, data, func(st *sessionState) any {
		old := olderLayout{
			Dialect: st.Dialect, TypeName: st.TypeName, Workload: st.Workload, KnobNames: st.KnobNames,
			Seed: st.Seed, Clones: st.Clones, Budget: st.Budget, Alpha: st.Alpha,
			Clock: st.Clock, Steps: st.Run.Steps, WaveCount: st.Run.WaveCount, BestFit: st.Run.BestFit,
			DefaultPerf: st.DefaultPerf, Curve: st.Run.Curve,
			Samples: st.Samples, RNG: st.RNG, CurWorkload: st.CurWorkload,
			DriftQueue: st.Run.Drifts, DriftIdx: st.Run.DriftIdx, BestSince: st.Run.BestSince,
			UserID: st.UserID,
		}
		for _, a := range st.Actors {
			old.CloneIDs = append(old.CloneIDs, a.CloneID)
			old.ActorIDs = append(old.ActorIDs, a.ID)
			old.ActorSeqs = append(old.ActorSeqs, a.Seq)
		}
		return old
	})
	s, _, err := ResumeSession(context.Background(), ckptRequest(filepath.Dir(path)), path)
	if err == nil {
		s.Close()
	}
	if err == nil || !strings.Contains(err.Error(), "format 0") || !strings.Contains(err.Error(), "incompatible version") {
		t.Fatalf("ResumeSession err = %v, want an incompatible-format error", err)
	}
	if _, _, err := PeekCheckpoint(path); err == nil || !strings.Contains(err.Error(), "format 0") {
		t.Fatalf("PeekCheckpoint err = %v, want an incompatible-format error", err)
	}
}

// TestFailedResumeLeavesRecorderUntouched: a resume that fails because
// the checkpoint's fleet lacks the user or a clone must not touch the
// request's recorder, even though the checkpoint carries telemetry.
func TestFailedResumeLeavesRecorderUntouched(t *testing.T) {
	dir := t.TempDir()
	req := ckptRequest(dir)
	req.Recorder = telemetry.New()
	s, err := NewSession(req)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.EvaluateBatch([][]float64{s.Space.Random(s.RNG), s.Space.Random(s.RNG)}); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteCheckpoint(nil); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(s.CheckpointPath())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		want string
		edit func(*sessionState)
	}{
		{"user instance no-such-instance", func(st *sessionState) { st.UserID = "no-such-instance" }},
		{"clone no-such-clone", func(st *sessionState) { st.Actors[1].CloneID = "no-such-clone" }},
	}
	for _, tc := range cases {
		path := craftCheckpoint(t, data, tc.edit)
		rec := telemetry.New()
		rec.Counter("caller.counter").Add(1)
		var before bytes.Buffer
		if err := rec.WriteText(&before); err != nil {
			t.Fatal(err)
		}
		req := ckptRequest(filepath.Dir(path))
		req.Recorder = rec
		r, _, err := ResumeSession(context.Background(), req, path)
		if err == nil {
			r.Close()
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("ResumeSession err = %v, want an error naming %q", err, tc.want)
		}
		var after bytes.Buffer
		if err := rec.WriteText(&after); err != nil {
			t.Fatal(err)
		}
		if after.String() != before.String() || rec.SpanCount() != 0 {
			t.Fatalf("%s: failed resume changed the recorder (%d spans):\n--- before\n%s--- after\n%s",
				tc.want, rec.SpanCount(), before.String(), after.String())
		}
	}
}

// runResumed drives a resumed session with random waves until its budget
// is spent.
func runResumed(t *testing.T, s *Session) {
	t.Helper()
	for {
		_, err := s.EvaluateBatch([][]float64{s.Space.Random(s.RNG), s.Space.Random(s.RNG)})
		if errors.Is(err, ErrBudgetExhausted) {
			return
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestResumeRejectsBadBookkeeping: a snapshot that passes its CRCs but
// carries counters no run writes must fail ResumeSession with an error
// naming the field, not panic in the first resumed wave.
func TestResumeRejectsBadBookkeeping(t *testing.T) {
	data := driftCheckpoint(t)
	cases := []struct {
		field string
		edit  func(*sessionState)
	}{
		{"DriftIdx", func(st *sessionState) { st.Run.DriftIdx = -1 }},
		{"DriftIdx", func(st *sessionState) { st.Run.DriftIdx = len(st.Run.Drifts) + 1 }},
		{"Steps", func(st *sessionState) { st.Run.Steps = -1 }},
		{"WaveCount", func(st *sessionState) { st.Run.WaveCount = -1 }},
	}
	for _, tc := range cases {
		path := craftCheckpoint(t, data, tc.edit)
		s, _, err := ResumeSession(context.Background(), ckptRequest(filepath.Dir(path)), path)
		if err == nil {
			s.Close()
		}
		if err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: ResumeSession err = %v, want an error naming %s", tc.field, err, tc.field)
		}
	}
	// Every in-range drift index resumes and runs to the end.
	for idx := 0; idx <= 2; idx++ {
		path := craftCheckpoint(t, data, func(st *sessionState) { st.Run.DriftIdx = idx })
		s, _, err := ResumeSession(context.Background(), ckptRequest(filepath.Dir(path)), path)
		if err != nil {
			t.Fatalf("DriftIdx %d: %v", idx, err)
		}
		runResumed(t, s)
		s.Close()
	}
}

// FuzzResumeSession overwrites a real snapshot's decoded bookkeeping with
// fuzz inputs and re-wraps it under valid CRCs (fuzzing raw bytes never
// gets past the CRC). ResumeSession must return an error, or the resumed
// session must run out its budget without panicking.
func FuzzResumeSession(f *testing.F) {
	data := driftCheckpoint(f)
	f.Add(0, 2, 1, int64(10*time.Minute))
	f.Add(-1, 2, 1, int64(10*time.Minute))
	f.Add(3, -1, -1, int64(-1))
	f.Add(2, 1<<40, 1<<40, int64(3*time.Hour))
	f.Fuzz(func(t *testing.T, driftIdx, steps, waves int, clock int64) {
		path := craftCheckpoint(t, data, func(st *sessionState) {
			st.Run.DriftIdx, st.Run.Steps, st.Run.WaveCount, st.Clock = driftIdx, steps, waves, time.Duration(clock)
		})
		s, _, err := ResumeSession(context.Background(), ckptRequest(filepath.Dir(path)), path)
		if err != nil {
			return
		}
		defer s.Close()
		runResumed(t, s)
	})
}
