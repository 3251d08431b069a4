package tuner

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"github.com/hunter-cdb/hunter/internal/chaos"
	"github.com/hunter-cdb/hunter/internal/checkpoint"
	"github.com/hunter-cdb/hunter/internal/safety"
	"github.com/hunter-cdb/hunter/internal/sim"
	"github.com/hunter-cdb/hunter/internal/simdb"
	"github.com/hunter-cdb/hunter/internal/workload"
)

// CheckpointFileName is the snapshot file a session maintains inside its
// checkpoint directory. One file, atomically replaced, always the latest
// consistent state.
const CheckpointFileName = "hunter.ckpt"

// CheckpointPolicy configures durable session snapshots.
type CheckpointPolicy struct {
	// Dir is the directory the checkpoint file is written into (created
	// on first write). Empty disables periodic checkpointing.
	Dir string
	// Every is the number of stress waves between snapshots (default 1).
	Every int
	// StopAfterWaves, when positive, makes the session checkpoint and
	// stop (ErrStopRequested) once that many waves have run — the
	// "kill after wave k" hook the resume tests and TestInvariants use.
	StopAfterWaves int
}

// ErrStopRequested reports that the session wrote its checkpoint and
// stopped because CheckpointPolicy.StopAfterWaves was reached. The run can
// be continued from the checkpoint with ResumeSession.
var ErrStopRequested = fmt.Errorf("tuner: stopped at requested wave after checkpoint")

// WaveCount returns the number of stress waves run so far (it keeps
// counting across a resume).
func (s *Session) WaveCount() int { return s.run.WaveCount }

// CheckpointPath returns the session's checkpoint file path ("" when
// checkpointing is disabled).
func (s *Session) CheckpointPath() string {
	p := s.Req.Checkpoint
	if p == nil || p.Dir == "" {
		return ""
	}
	return filepath.Join(p.Dir, CheckpointFileName)
}

// CheckpointBarrier is called by tuners at algorithm-safe points — moments
// where algo fully reflects every sample the session has produced. If a
// snapshot is due under the session's policy it is written (charging zero
// virtual time); if the policy's stop wave has been reached the checkpoint
// is written unconditionally and ErrStopRequested is returned. algo may be
// nil for tuners with no durable state of their own.
func (s *Session) CheckpointBarrier(algo checkpoint.Snapshotter) error {
	p := s.Req.Checkpoint
	if p == nil {
		return nil
	}
	stop := p.StopAfterWaves > 0 && s.run.WaveCount >= p.StopAfterWaves
	every := p.Every
	if every <= 0 {
		every = 1
	}
	due := p.Dir != "" && s.run.WaveCount-s.lastCkptWave >= every
	if !due && !stop {
		return nil
	}
	if p.Dir != "" {
		if err := s.WriteCheckpoint(algo); err != nil {
			return err
		}
	}
	if stop {
		return ErrStopRequested
	}
	return nil
}

// sessionFormat numbers the layout of the session section. A checkpoint
// whose session section carries any other number is refused; one written
// before the number existed decodes as 0.
const sessionFormat = 1

// sessionState is the session section: a format number, the request
// fingerprint, the run, and handles to the state that lives outside the
// run. A resume refuses to continue under a request that would produce a
// different run.
type sessionState struct {
	Format int

	Dialect   simdb.Dialect
	TypeName  string
	Workload  string // the request's (pre-drift) workload name
	KnobNames []string
	Seed      int64
	Clones    int
	Budget    time.Duration
	Alpha     float64
	// Chaos plan fingerprint: resuming under a different fault plan would
	// replay a different run.
	ChaosSeed    int64
	ChaosProfile chaos.Profile
	// Evaluation-optimization fingerprint: wave dedup and warm-state
	// deltas change which stress tests run, so a resume must keep them.
	DedupWaves bool
	WarmDeltas bool
	// Personalized-SLO fingerprint: resuming with a different fitness
	// target would stop the run at a different wave.
	StopAtFitness float64
	// Online-safety fingerprint: the guard's defaulted options, nil when
	// the loop is off. Different safety settings would run a different
	// session.
	Safety *safety.Options

	Run runState

	Clock       time.Duration
	DefaultPerf simdb.Perf
	CurWorkload *workload.Profile // active workload (drift may have switched it)
	Samples     []Sample
	RNG         sim.RNGState
	Guard       safety.State
	UserID      string
	Actors      []actorState
	TraceID     int
	// The chaos injector's derived seed and fault tally: a resume replays
	// the exact same fault plan and keeps reporting whole-session numbers.
	ChaosEngineSeed int64
	ChaosCounts     chaos.Counts
}

// actorState is one actor in the session section: its fault key, the
// clone it drives, its step sequence and its quarantine strikes.
type actorState struct {
	ID      int
	CloneID string
	Seq     int64
	Strikes int
}

// Checkpoint section names.
const (
	sectionSession   = "session"
	sectionProvider  = "provider"
	sectionTelemetry = "telemetry"
	// SectionAlgo is the tuning algorithm's opaque state (written when the
	// tuner passes a snapshotter to CheckpointBarrier).
	SectionAlgo = "algo"
)

// WriteCheckpoint atomically writes the full session snapshot — session
// bookkeeping, the whole simulated fleet, telemetry, and the algorithm
// section — to CheckpointPath. It advances no virtual time.
func (s *Session) WriteCheckpoint(algo checkpoint.Snapshotter) error {
	path := s.CheckpointPath()
	if path == "" {
		return fmt.Errorf("tuner: checkpointing is not configured")
	}
	st := sessionState{
		Format:        sessionFormat,
		Dialect:       s.Req.Dialect,
		TypeName:      s.Req.Type.Name,
		Workload:      s.origWorkload,
		KnobNames:     s.Req.KnobNames,
		Seed:          s.Req.Seed,
		Clones:        s.Req.Clones,
		Budget:        s.Req.Budget,
		Alpha:         s.Alpha,
		DedupWaves:    s.dedupWaves(),
		WarmDeltas:    s.warmStateDeltas(),
		StopAtFitness: s.Req.StopAtFitness,
		Run:           s.run,
		Clock:         s.Clock.Now(),
		DefaultPerf:   s.DefaultPerf,
		CurWorkload:   s.Req.Workload,
		Samples:       s.Pool.All(),
		RNG:           s.RNG.State(),
		UserID:        s.User.ID,
		TraceID:       s.Trace.ID(),
	}
	if plan := s.Req.Chaos; plan.Enabled() {
		st.ChaosSeed = plan.Seed
		st.ChaosProfile = plan.Profile // as requested, pre-normalization
		st.ChaosEngineSeed = s.chaos.Seed()
		st.ChaosCounts = s.chaos.Counts()
	}
	if s.guard != nil {
		opts := s.guard.Options()
		st.Safety = &opts
		st.Guard = s.guard.Snapshot()
	}
	for _, a := range s.actors {
		st.Actors = append(st.Actors, actorState{ID: a.ID, CloneID: a.Clone.ID, Seq: a.seq, Strikes: a.strikes})
	}
	w := checkpoint.NewWriter()
	var sb bytes.Buffer
	if err := gob.NewEncoder(&sb).Encode(st); err != nil {
		return fmt.Errorf("tuner: encoding session state: %w", err)
	}
	if err := w.AddBytes(sectionSession, sb.Bytes()); err != nil {
		return err
	}
	if err := w.Add(sectionProvider, s.Provider); err != nil {
		return err
	}
	if s.Req.Recorder != nil {
		if err := w.Add(sectionTelemetry, s.Req.Recorder); err != nil {
			return err
		}
	}
	if algo != nil {
		if err := w.Add(SectionAlgo, algo); err != nil {
			return err
		}
	}
	if err := w.WriteFile(path); err != nil {
		return err
	}
	s.lastCkptWave = s.run.WaveCount
	s.logf("checkpoint written", "path", path, "wave", s.run.WaveCount)
	return nil
}

// readCheckpoint loads and integrity-checks a checkpoint file and decodes
// its session section, refusing any layout but the current one.
func readCheckpoint(path string) (*checkpoint.File, *sessionState, error) {
	f, err := checkpoint.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	raw, err := f.Bytes(sectionSession)
	if err != nil {
		return nil, nil, fmt.Errorf("tuner: checkpoint has no session state: %w", err)
	}
	var st sessionState
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&st); err != nil {
		return nil, nil, fmt.Errorf("tuner: decoding session state: %w", err)
	}
	if st.Format != sessionFormat {
		return nil, nil, fmt.Errorf("tuner: checkpoint session format %d was written by an incompatible version (this build reads format %d)",
			st.Format, sessionFormat)
	}
	return f, &st, nil
}

// PeekCheckpoint reads just the bookkeeping of a checkpoint file: the
// wave it was taken at and the virtual clock reading. The whole file is
// still integrity-checked, so a corrupt checkpoint fails here too.
func PeekCheckpoint(path string) (wave int, clock time.Duration, err error) {
	_, st, err := readCheckpoint(path)
	if err != nil {
		return 0, 0, err
	}
	return st.Run.WaveCount, st.Clock, nil
}

// ResumeSession rebuilds a Session from a checkpoint written by
// WriteCheckpoint. The request must describe the same run the checkpoint
// came from (same dialect, instance type, workload, knobs, seed, clones,
// budget and α) — logger, recorder and checkpoint policy may differ. The
// returned File gives the caller access to the checkpoint's algorithm
// section.
//
// On any error nothing observable is mutated, with one exception: the
// request's recorder is restored from the checkpoint's telemetry section
// last, so if that section then lacks the checkpoint's trace session, the
// error returns with the recorder already holding the restored telemetry.
func ResumeSession(ctx context.Context, req Request, path string) (*Session, *checkpoint.File, error) {
	s, err := newSession(ctx, req)
	if err != nil {
		return nil, nil, err
	}
	req = s.Req
	f, st, err := readCheckpoint(path)
	if err != nil {
		return nil, nil, err
	}
	if err := checkFingerprint(st, &req); err != nil {
		return nil, nil, err
	}
	if err := checkBookkeeping(st); err != nil {
		return nil, nil, err
	}
	if err := s.RNG.SetState(st.RNG); err != nil {
		return nil, nil, err
	}
	s.run = st.Run
	s.lastCkptWave = st.Run.WaveCount
	s.DefaultPerf = st.DefaultPerf
	s.Req.Workload = st.CurWorkload
	s.Clock.AdvanceTo(st.Clock)
	s.Pool.Add(st.Samples...)
	// Re-arm the fault plan before the fleet is restored: the injector seed
	// and tally come from the checkpoint, not from a fresh RNG fork, so the
	// fault stream continues exactly where the snapshot left it.
	if req.Chaos.Enabled() {
		e := chaos.NewEngine(st.ChaosEngineSeed, req.Chaos.Profile)
		e.SetCounts(st.ChaosCounts)
		s.setChaos(e)
	}
	if err := f.Restore(sectionProvider, s.Provider); err != nil {
		return nil, nil, fmt.Errorf("tuner: restoring fleet: %w", err)
	}
	user, ok := s.Provider.Instance(st.UserID)
	if !ok {
		return nil, nil, fmt.Errorf("tuner: user instance %s missing from checkpoint fleet", st.UserID)
	}
	s.User = user
	for _, a := range st.Actors {
		c, ok := s.Provider.Instance(a.CloneID)
		if !ok {
			return nil, nil, fmt.Errorf("tuner: clone %s missing from checkpoint fleet", a.CloneID)
		}
		s.Clones = append(s.Clones, c)
		s.actors = append(s.actors, &Actor{ID: a.ID, Clone: c, seq: a.Seq, strikes: a.Strikes})
	}
	// The warm-delta flag is runtime engine configuration, deliberately
	// excluded from snapshots — re-apply it to the restored fleet.
	if s.warmStateDeltas() {
		applyWarmDeltas(s.User)
		applyWarmDeltas(s.Clones...)
	}
	// The guard continues exactly where the snapshot left it; the
	// deployment records came back with the run.
	if req.Safety != nil {
		if s.guard, err = safety.NewGuard(*req.Safety); err != nil {
			return nil, nil, err
		}
		s.guard.Restore(st.Guard)
	}
	// Telemetry last, so every failure above leaves the recorder untouched.
	if req.Recorder != nil {
		if f.Has(sectionTelemetry) {
			if err := f.Restore(sectionTelemetry, req.Recorder); err != nil {
				return nil, nil, fmt.Errorf("tuner: restoring telemetry: %w", err)
			}
		}
		if st.TraceID > 0 {
			s.Trace = req.Recorder.AdoptSession(st.TraceID, s.Clock.Now)
			if s.Trace == nil {
				return nil, nil, fmt.Errorf("tuner: checkpoint trace session %d missing from recorder", st.TraceID)
			}
		} else {
			s.Trace = req.Recorder.Session(
				fmt.Sprintf("%s/%s", req.Dialect, s.Req.Workload.Name), s.Clock.Now)
		}
		s.tel = resolveSessionTel(req.Recorder, s.chaos != nil, req.Safety != nil)
		s.Provider.SetRecorder(req.Recorder)
	}
	s.initStatus()
	s.publishStatus(false)
	s.logf("session resumed",
		"checkpoint", path,
		"wave", s.run.WaveCount,
		"steps", s.run.Steps,
		"pool", s.Pool.Len())
	return s, f, nil
}

// checkFingerprint verifies the resume request matches the checkpointed
// run; any divergence would silently produce a different tuning trajectory.
func checkFingerprint(st *sessionState, req *Request) error {
	mismatch := func(field string, got, want any) error {
		return fmt.Errorf("tuner: checkpoint fingerprint mismatch: request %s = %v, checkpoint has %v",
			field, got, want)
	}
	if req.Dialect != st.Dialect {
		return mismatch("dialect", req.Dialect, st.Dialect)
	}
	if req.Type.Name != st.TypeName {
		return mismatch("instance type", req.Type.Name, st.TypeName)
	}
	if req.Workload.Name != st.Workload {
		return mismatch("workload", req.Workload.Name, st.Workload)
	}
	if req.Seed != st.Seed {
		return mismatch("seed", req.Seed, st.Seed)
	}
	if req.Clones != st.Clones {
		return mismatch("clones", req.Clones, st.Clones)
	}
	if req.Budget != st.Budget {
		return mismatch("budget", req.Budget, st.Budget)
	}
	if a := req.Rules.EffectiveAlpha(); a != st.Alpha {
		return mismatch("alpha", a, st.Alpha)
	}
	if len(req.KnobNames) != len(st.KnobNames) {
		return mismatch("knob count", len(req.KnobNames), len(st.KnobNames))
	}
	for i, n := range req.KnobNames {
		if n != st.KnobNames[i] {
			return mismatch(fmt.Sprintf("knob %d", i), n, st.KnobNames[i])
		}
	}
	var planSeed int64
	var planProfile chaos.Profile
	if req.Chaos.Enabled() {
		planSeed = req.Chaos.Seed
		planProfile = req.Chaos.Profile
	}
	if planSeed != st.ChaosSeed {
		return mismatch("chaos seed", planSeed, st.ChaosSeed)
	}
	if planProfile != st.ChaosProfile {
		return mismatch("chaos profile", planProfile.Name, st.ChaosProfile.Name)
	}
	var dedup, warm bool
	if req.Eval != nil {
		dedup, warm = req.Eval.DedupWaves, req.Eval.WarmStateDeltas
	}
	if dedup != st.DedupWaves {
		return mismatch("wave dedup", dedup, st.DedupWaves)
	}
	if warm != st.WarmDeltas {
		return mismatch("warm-state deltas", warm, st.WarmDeltas)
	}
	if req.StopAtFitness != st.StopAtFitness {
		return mismatch("fitness target", req.StopAtFitness, st.StopAtFitness)
	}
	// Safety options change which waves, canaries and deploys run, so the
	// whole (defaulted) option set is part of the fingerprint.
	if (req.Safety != nil) != (st.Safety != nil) {
		return mismatch("safety loop", req.Safety != nil, st.Safety != nil)
	}
	if req.Safety != nil {
		if got := req.Safety.WithDefaults(); got != *st.Safety {
			return mismatch("safety options", got, *st.Safety)
		}
	}
	return nil
}

// checkBookkeeping rejects counters a resumed run would index or count
// with: a checkpoint that passes its CRCs can still carry values no run
// writes, and they must fail the resume rather than the continued run.
func checkBookkeeping(st *sessionState) error {
	bad := func(field string, v any) error {
		return fmt.Errorf("tuner: checkpoint %s = %v is out of range", field, v)
	}
	r := &st.Run
	if r.Steps < 0 {
		return bad("Steps", r.Steps)
	}
	if r.WaveCount < 0 {
		return bad("WaveCount", r.WaveCount)
	}
	if r.DriftIdx < 0 || r.DriftIdx > len(r.Drifts) {
		return bad("DriftIdx", r.DriftIdx)
	}
	if st.CurWorkload == nil {
		return bad("CurWorkload", nil)
	}
	return nil
}

// VerifyScheduledDrifts checks a resumed session's drift queue against the
// schedule the caller would have programmed on a fresh run (facades call
// this with the request's regenerated drift events — the queue itself
// rides the checkpoint, so this is a fingerprint, not a reload).
func (s *Session) VerifyScheduledDrifts(events []workload.DriftEvent) error {
	sorted := append([]workload.DriftEvent(nil), events...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].At < sorted[j].At })
	drifts := s.run.Drifts
	if len(sorted) != len(drifts) {
		return fmt.Errorf("tuner: checkpoint has %d scheduled drift(s), request schedules %d",
			len(drifts), len(sorted))
	}
	for i, ev := range sorted {
		if ev.Profile == nil {
			return fmt.Errorf("tuner: scheduled drift %d has no profile", i)
		}
		if ev.At != drifts[i].At || ev.Profile.Name != drifts[i].To.Name {
			return fmt.Errorf("tuner: scheduled drift %d mismatch: checkpoint %v→%s, request %v→%s",
				i, drifts[i].At, drifts[i].To.Name, ev.At, ev.Profile.Name)
		}
	}
	return nil
}
