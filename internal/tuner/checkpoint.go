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
	"github.com/hunter-cdb/hunter/internal/cloud"
	"github.com/hunter-cdb/hunter/internal/knob"
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
func (s *Session) WaveCount() int { return s.waveCount }

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
	stop := p.StopAfterWaves > 0 && s.waveCount >= p.StopAfterWaves
	every := p.Every
	if every <= 0 {
		every = 1
	}
	due := p.Dir != "" && s.waveCount-s.lastCkptWave >= every
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

// sessionState is the session's own durable state. The leading fields are
// the request fingerprint: a resume refuses to continue under a request
// that would produce a different run.
type sessionState struct {
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
	// Gob's zero defaults keep checkpoints from before these flags valid.
	DedupWaves bool
	WarmDeltas bool
	// Personalized-SLO fingerprint: resuming with a different fitness
	// target would stop the run at a different wave. Zero-default keeps
	// older checkpoints valid.
	StopAtFitness float64

	Clock       time.Duration
	Steps       int
	WaveCount   int
	BestFit     float64
	TargetHit   bool
	ModelTime   time.Duration
	DefaultPerf simdb.Perf
	Curve       Curve
	Samples     []Sample
	RNG         sim.RNGState

	CurWorkload *workload.Profile // active workload (drift may have switched it)
	// Legacy single-drift trio, kept so checkpoints from before the drift
	// queue still decode (see the resume conversion); new snapshots leave
	// them zero and write DriftQueue instead.
	DriftAt time.Duration
	DriftTo *workload.Profile
	Drifted bool

	// Ordered drift queue: the full schedule (fired and pending), how many
	// entries have fired, and the Best() time fence.
	DriftQueue []scheduledDrift
	DriftIdx   int
	BestSince  time.Duration

	// Online-safety fingerprint (the guard's defaulted options; nil when
	// the loop is off — resuming with different safety settings would run
	// a different session) and runtime state: the guard snapshot, what is
	// deployed on the user instance, the last-known-good fallback and the
	// loop's cadence/monitoring bookkeeping.
	Safety        *safety.Options
	SafetyState   *safety.State
	DefaultCfg    knob.Config
	DeployedCfg   knob.Config
	DeployedPoint []float64
	DeployedFit   float64
	DeployedPerf  simdb.Perf
	LastGoodCfg   knob.Config
	LastGoodPoint []float64
	LastGoodFit   float64
	LastGoodPerf  simdb.Perf
	SinceMonitor  int
	SinceDeploy   int
	MonitorLog    []MonitorPoint

	UserID   string
	CloneIDs []string
	TraceID  int

	// Chaos runtime state: the derived injector seed, its fault tally, the
	// per-actor fault keys/strikes (aligned with CloneIDs) and the
	// supervisor tally — everything a resume needs to replay the exact
	// same fault plan and keep reporting whole-session numbers.
	ChaosEngineSeed int64
	ChaosCounts     chaos.Counts
	ActorIDs        []int
	ActorSeqs       []int64
	ActorStrikes    []int
	Resil           resilienceStats
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
		Dialect:     s.Req.Dialect,
		TypeName:    s.Req.Type.Name,
		Workload:    s.origWorkload,
		KnobNames:   s.Req.KnobNames,
		Seed:        s.Req.Seed,
		Clones:      s.Req.Clones,
		Budget:      s.Req.Budget,
		Alpha:       s.Alpha,
		Clock:       s.Clock.Now(),
		Steps:       s.steps,
		WaveCount:   s.waveCount,
		BestFit:     s.bestFit,
		ModelTime:   s.modelTime,
		DefaultPerf: s.DefaultPerf,
		Curve:       s.curve,
		Samples:     s.Pool.All(),
		RNG:         s.RNG.State(),
		CurWorkload: s.Req.Workload,
		DriftQueue:  s.drifts,
		DriftIdx:    s.driftIdx,
		BestSince:   s.bestSince,
		UserID:      s.User.ID,
		Resil:       s.resil,
		DedupWaves:  s.dedupWaves(),
		WarmDeltas:  s.warmStateDeltas(),

		StopAtFitness: s.Req.StopAtFitness,
		TargetHit:     s.targetHit,
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
		gs := s.guard.Snapshot()
		st.SafetyState = &gs
		st.DefaultCfg = s.defaultCfg
		st.DeployedCfg = s.deployedCfg
		st.DeployedPoint = s.deployedPoint
		st.DeployedFit = s.deployedFit
		st.DeployedPerf = s.deployedPerf
		st.LastGoodCfg = s.lastGoodCfg
		st.LastGoodPoint = s.lastGoodPoint
		st.LastGoodFit = s.lastGoodFit
		st.LastGoodPerf = s.lastGoodPerf
		st.SinceMonitor = s.sinceMonitor
		st.SinceDeploy = s.sinceDeploy
		st.MonitorLog = s.monitorLog
	}
	for _, c := range s.Clones {
		st.CloneIDs = append(st.CloneIDs, c.ID)
	}
	for _, a := range s.actors {
		st.ActorIDs = append(st.ActorIDs, a.ID)
		st.ActorSeqs = append(st.ActorSeqs, a.seq)
		st.ActorStrikes = append(st.ActorStrikes, a.strikes)
	}
	if s.Trace != nil {
		st.TraceID = s.Trace.ID()
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
	s.lastCkptWave = s.waveCount
	s.logf("checkpoint written", "path", path, "wave", s.waveCount)
	return nil
}

// PeekCheckpoint reads just the bookkeeping of a checkpoint file: the
// wave it was taken at and the virtual clock reading. The whole file is
// still integrity-checked, so a corrupt checkpoint fails here too.
func PeekCheckpoint(path string) (wave int, clock time.Duration, err error) {
	f, err := checkpoint.ReadFile(path)
	if err != nil {
		return 0, 0, err
	}
	raw, err := f.Bytes(sectionSession)
	if err != nil {
		return 0, 0, fmt.Errorf("tuner: checkpoint has no session state: %w", err)
	}
	var st sessionState
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&st); err != nil {
		return 0, 0, fmt.Errorf("tuner: decoding session state: %w", err)
	}
	return st.WaveCount, st.Clock, nil
}

// ResumeSession rebuilds a Session from a checkpoint written by
// WriteCheckpoint. The request must describe the same run the checkpoint
// came from (same dialect, instance type, workload, knobs, seed, clones,
// budget and α) — logger, recorder and checkpoint policy may differ. The
// returned File gives the caller access to the checkpoint's algorithm
// section. On any error nothing observable is mutated.
func ResumeSession(ctx context.Context, req Request, path string) (*Session, *checkpoint.File, error) {
	if err := req.withDefaults(); err != nil {
		return nil, nil, err
	}
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
	if err := checkFingerprint(&st, &req); err != nil {
		return nil, nil, err
	}
	if err := checkBookkeeping(&st); err != nil {
		return nil, nil, err
	}

	costs := DefaultStepCosts()
	var cat *knob.Catalog
	if req.Dialect == simdb.Postgres {
		cat = knob.Postgres()
	} else {
		cat = knob.MySQL()
	}
	if err := req.Rules.Validate(cat); err != nil {
		return nil, nil, err
	}
	space, err := knob.NewSpace(cat, req.KnobNames, req.Rules)
	if err != nil {
		return nil, nil, err
	}

	s := &Session{
		Req:          req,
		Clock:        sim.NewClock(),
		Provider:     cloud.NewProvider(req.Clones+4, 0),
		Space:        space,
		Pool:         NewSharedPool(),
		Costs:        costs,
		Alpha:        st.Alpha,
		RNG:          sim.NewRNG(0),
		DefaultPerf:  st.DefaultPerf,
		steps:        st.Steps,
		waveCount:    st.WaveCount,
		lastCkptWave: st.WaveCount,
		curve:        st.Curve,
		bestFit:      st.BestFit,
		targetHit:    st.TargetHit,
		modelTime:    st.ModelTime,
		drifts:       st.DriftQueue,
		driftIdx:     st.DriftIdx,
		bestSince:    st.BestSince,
		origWorkload: st.Workload,
		ctx:          ctx,
	}
	// Checkpoints from before the drift queue carry the single-drift trio;
	// convert it so older snapshots resume with identical semantics.
	if len(s.drifts) == 0 && st.DriftTo != nil {
		s.drifts = []scheduledDrift{{At: st.DriftAt, To: st.DriftTo}}
		if st.Drifted {
			s.driftIdx = 1
			s.bestSince = st.DriftAt
		}
	}
	if st.CurWorkload != nil {
		s.Req.Workload = st.CurWorkload
	}
	if err := s.RNG.SetState(st.RNG); err != nil {
		return nil, nil, err
	}
	s.Clock.AdvanceTo(st.Clock)
	s.Pool.Add(st.Samples...)
	s.resil = st.Resil
	// Re-arm the fault plan before the recorder attaches and the fleet is
	// restored: the injector seed and tally come from the checkpoint, not
	// from a fresh RNG fork, so the fault stream continues exactly where
	// the snapshot left it.
	if req.Chaos.Enabled() {
		s.chaos = chaos.NewEngine(st.ChaosEngineSeed, req.Chaos.Profile)
		s.chaos.SetCounts(st.ChaosCounts)
		s.Provider.SetChaos(s.chaos)
		s.deadline = time.Duration(s.chaos.DeadlineFactor() * float64(nominalStep(costs)))
	}

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
	if err := f.Restore(sectionProvider, s.Provider); err != nil {
		return nil, nil, fmt.Errorf("tuner: restoring fleet: %w", err)
	}
	user, ok := s.Provider.Instance(st.UserID)
	if !ok {
		return nil, nil, fmt.Errorf("tuner: user instance %s missing from checkpoint fleet", st.UserID)
	}
	s.User = user
	for i, id := range st.CloneIDs {
		c, ok := s.Provider.Instance(id)
		if !ok {
			return nil, nil, fmt.Errorf("tuner: clone %s missing from checkpoint fleet", id)
		}
		a := &Actor{ID: i, Clone: c}
		// Actor fault keys survive the resume (older checkpoints without
		// them fall back to positional IDs and zero counters).
		if i < len(st.ActorIDs) {
			a.ID = st.ActorIDs[i]
		}
		if i < len(st.ActorSeqs) {
			a.seq = st.ActorSeqs[i]
		}
		if i < len(st.ActorStrikes) {
			a.strikes = st.ActorStrikes[i]
		}
		s.Clones = append(s.Clones, c)
		s.actors = append(s.actors, a)
	}
	// The warm-delta flag is runtime engine configuration, deliberately
	// excluded from snapshots — re-apply it to the restored fleet.
	if s.warmStateDeltas() {
		applyWarmDeltas(s.User)
		applyWarmDeltas(s.Clones...)
	}
	// Re-arm the safety loop and lay the checkpointed state over the fresh
	// guard: trust region, baseline window, violation counters, blocked
	// keys, quarantine, deployed/last-known-good configs and the monitor
	// timeline all continue exactly where the snapshot left them.
	if req.Safety != nil {
		if err := s.armSafety(req.Safety); err != nil {
			return nil, nil, err
		}
		if st.SafetyState != nil {
			s.guard.Restore(*st.SafetyState)
		}
		if st.DefaultCfg != nil {
			s.defaultCfg = st.DefaultCfg
			s.defaultPoint = s.Space.Encode(st.DefaultCfg)
		}
		if st.DeployedCfg != nil {
			s.deployedCfg = st.DeployedCfg
			s.deployedPoint = st.DeployedPoint
			s.deployedFit = st.DeployedFit
			s.deployedPerf = st.DeployedPerf
		}
		if st.LastGoodCfg != nil {
			s.lastGoodCfg = st.LastGoodCfg
			s.lastGoodPoint = st.LastGoodPoint
			s.lastGoodFit = st.LastGoodFit
			s.lastGoodPerf = st.LastGoodPerf
		}
		s.sinceMonitor = st.SinceMonitor
		s.sinceDeploy = st.SinceDeploy
		s.monitorLog = st.MonitorLog
	}
	s.initStatus()
	s.publishStatus(false)
	s.logf("session resumed",
		"checkpoint", path,
		"wave", s.waveCount,
		"steps", s.steps,
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
	if st.Steps < 0 {
		return bad("Steps", st.Steps)
	}
	if st.WaveCount < 0 {
		return bad("WaveCount", st.WaveCount)
	}
	if st.DriftIdx < 0 || st.DriftIdx > len(st.DriftQueue) {
		return bad("DriftIdx", st.DriftIdx)
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
	if len(sorted) != len(s.drifts) {
		return fmt.Errorf("tuner: checkpoint has %d scheduled drift(s), request schedules %d",
			len(s.drifts), len(sorted))
	}
	for i, ev := range sorted {
		if ev.Profile == nil {
			return fmt.Errorf("tuner: scheduled drift %d has no profile", i)
		}
		if ev.At != s.drifts[i].At || ev.Profile.Name != s.drifts[i].To.Name {
			return fmt.Errorf("tuner: scheduled drift %d mismatch: checkpoint %v→%s, request %v→%s",
				i, s.drifts[i].At, s.drifts[i].To.Name, ev.At, ev.Profile.Name)
		}
	}
	return nil
}
