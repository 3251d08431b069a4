// Package hunter is the public API of the HUNTER reproduction: an online
// cloud-database hybrid tuning system (Cai et al., SIGMOD '22). It tunes
// the configuration knobs of a (simulated) MySQL or PostgreSQL cloud
// database for a user's workload under personalized Rules, combining a
// genetic-algorithm Sample Factory, a PCA + Random-Forest Search Space
// Optimizer, and a DDPG Recommender with the Fast Exploration Strategy,
// all exploring on cloned instances so the user's database stays
// undisturbed until the final verified configuration is deployed.
//
// Quick start:
//
//	result, err := hunter.Tune(hunter.Request{
//		Dialect:  hunter.MySQL,
//		Workload: hunter.TPCC(),
//		Budget:   8 * time.Hour, // virtual time
//		Clones:   5,
//	})
//
// The returned Result carries the recommended configuration, its measured
// performance, and the full best-so-far curve.
package hunter

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"path/filepath"
	"time"

	"github.com/hunter-cdb/hunter/internal/chaos"
	"github.com/hunter-cdb/hunter/internal/cloud"
	"github.com/hunter-cdb/hunter/internal/core"
	"github.com/hunter-cdb/hunter/internal/knob"
	"github.com/hunter-cdb/hunter/internal/obsv"
	"github.com/hunter-cdb/hunter/internal/safety"
	"github.com/hunter-cdb/hunter/internal/simdb"
	"github.com/hunter-cdb/hunter/internal/telemetry"
	"github.com/hunter-cdb/hunter/internal/tuner"
	"github.com/hunter-cdb/hunter/internal/workload"
)

// Dialect selects the database flavour.
type Dialect = simdb.Dialect

// Supported dialects.
const (
	MySQL    = simdb.MySQL
	Postgres = simdb.Postgres
)

// Rules are the user's personalized tuning restrictions: fixed knobs,
// narrowed ranges, conditional constraints and the throughput/latency
// preference α.
type Rules = knob.Rules

// NewRules returns an empty, unrestricted rule set.
func NewRules() *Rules { return knob.NewRules() }

// Comparison operators for conditional rules.
const (
	OpGT = knob.OpGT
	OpLT = knob.OpLT
	OpEQ = knob.OpEQ
)

// Config is a knob assignment.
type Config = knob.Config

// Perf is a measured performance (throughput, latency percentiles).
type Perf = simdb.Perf

// Workload is a stress-test workload profile.
type Workload = workload.Profile

// Built-in workloads (Table 2).
func TPCC() *Workload       { return workload.TPCC() }
func SysbenchRO() *Workload { return workload.SysbenchRO() }
func SysbenchWO() *Workload { return workload.SysbenchWO() }
func SysbenchRW() *Workload { return workload.SysbenchRW() }
func Production() *Workload { return workload.Production() }

// ProductionDrifted is the 21:00 capture of the Production workload — the
// drift target of Figure 10.
func ProductionDrifted() *Workload { return workload.ProductionDrifted() }

// CompressedProduction is the Production workload compressed into a
// representative kernel: its query classes clustered by access signature
// with per-cluster weights, evaluated at a fraction of the full trace's
// stress-test cost with bounded fidelity loss. This is what -compress
// selects in the CLIs.
func CompressedProduction() *Workload { return workload.CompressProduction().Profile }

// CompressWorkload returns a copy of w whose stress-test measurement
// effort is scaled to fraction ∈ (0,1] — the compression mode for
// synthetic benchmarks whose mix is already compact. Trace-backed
// workloads should use CompressedProduction, which also collapses the mix.
func CompressWorkload(w *Workload, fraction float64) *Workload {
	return w.WithMeasureFraction(fraction)
}

// SysbenchRWRatio returns a read/write mix with the given transaction
// ratio (the Figure 13 workloads are 4:1 and 1:1).
func SysbenchRWRatio(read, write float64) *Workload {
	return workload.SysbenchRWRatio(read, write)
}

// InstanceType is a cloud instance size (Table 7 lists A–H).
type InstanceType = cloud.InstanceType

// InstanceTypeByName resolves one of the Table 7 sizes by letter.
func InstanceTypeByName(name string) (InstanceType, error) { return cloud.TypeByName(name) }

// CustomInstanceType builds an ad-hoc size.
func CustomInstanceType(name string, cores, ramGB int) InstanceType {
	return cloud.CustomType(name, cores, ramGB)
}

// ReuseRegistry stores trained Recommender models for the online
// model-reuse scheme; share one registry across Tune calls to enable it.
// Each call commits its trained model under the workload's name, replacing
// an earlier one only when its fitness is strictly better.
type ReuseRegistry = core.ReuseRegistry

// NewReuseRegistry returns an empty model registry.
func NewReuseRegistry() *ReuseRegistry { return core.NewReuseRegistry() }

// Recorder collects telemetry for tuning runs: virtual-clock span traces,
// counters and gauges from the simulator, the cloud control plane and the
// tuner, and exporters (JSONL/Chrome traces, a text exposition, a JSON run
// report). Share one recorder across Tune calls to aggregate a whole
// experiment; a nil recorder disables telemetry at zero cost. Recording is
// passive: enabling it never changes tuning results.
type Recorder = telemetry.Recorder

// NewRecorder returns an enabled, empty telemetry recorder.
func NewRecorder() *Recorder { return telemetry.New() }

// ChaosPlan arms deterministic fault injection on the simulated cloud: a
// seed and a fault profile. The fault stream is a pure function of the
// tuning seed and the chaos seed, so a plan reproduces exactly — across
// runs, worker counts, and checkpoint resumes. Nil (or the "off" profile)
// disables injection, leaving every byte of output unchanged.
type ChaosPlan = chaos.Plan

// ChaosProfile describes a fault environment (probabilities per hook
// point plus the actor quarantine threshold).
type ChaosProfile = chaos.Profile

// ChaosProfileByName resolves a built-in fault profile: "off", "mild",
// "flaky" or "catastrophic".
func ChaosProfileByName(name string) (ChaosProfile, error) { return chaos.ProfileByName(name) }

// ChaosProfiles lists the built-in fault profile names.
func ChaosProfiles() []string { return chaos.Profiles() }

// ResilienceReport summarizes a run's fault history — what the chaos plan
// injected and how the self-healing loop responded (retries, backoff
// time, timeouts, lost samples, replacement clones, quarantined actors,
// partial waves).
type ResilienceReport = tuner.ResilienceReport

// ErrFleetLost reports that every cloned CDB was lost to faults: tuning
// could not continue, and the result falls back to the user instance's
// baseline configuration.
var ErrFleetLost = tuner.ErrFleetLost

// SessionStatus is a point-in-time view of a running tuning session:
// phase, wave, virtual-time progress, best objective, and (when chaos is
// armed) the resilience tallies so far. Statuses are published to a
// StatusSink; they never feed back into the tuner.
type SessionStatus = tuner.SessionStatus

// StatusSink receives SessionStatus updates at phase changes and wave
// boundaries. Publishing is passive: a sink never changes tuning results.
type StatusSink = tuner.StatusSink

// StatusRegistry collects SessionStatus updates from one or more sessions
// and answers the introspection server's /status and /sessions queries.
// It is the StatusSink to pass in Request.Status.
type StatusRegistry = obsv.Registry

// NewStatusRegistry returns an empty session status registry.
func NewStatusRegistry() *StatusRegistry { return obsv.NewRegistry() }

// IntrospectionServer serves the live introspection plane over HTTP:
// /metrics (Prometheus-style text exposition), /status and /sessions
// (JSON), and /events (live SSE stream, or a JSONL dump with ?follow=0).
// Serving reads consistent snapshots under the recorder's locks and never
// perturbs tuning results.
type IntrospectionServer = obsv.Server

// NewIntrospectionServer builds an introspection server over a recorder
// and a status registry (either may be nil; the matching endpoints then
// serve empty data). Call Start("127.0.0.1:0") to begin serving.
func NewIntrospectionServer(rec *Recorder, reg *StatusRegistry) *IntrospectionServer {
	return obsv.NewServer(rec, reg)
}

// SafetyOptions configures the online safe-tuning loop: guardrails
// (canary gate, trust region, rollback), SLO objectives (p99 ceiling,
// throughput floor), the rolling-baseline margin, and drift detection.
// Zero-valued fields take documented defaults. The canary count, trust
// region and monitor/deploy cadence are fixed policy, not options.
type SafetyOptions = safety.Options

// SafetyReport summarizes a run's online safety loop: canary waves, online
// deploys, guardrail blocks, rollbacks, SLO violations, detected drifts,
// quarantined regions and what ended up deployed.
type SafetyReport = tuner.SafetyReport

// MonitorPoint is one probe of the deployed configuration's performance on
// the serving instance — the deployed-config timeline of a safe run.
type MonitorPoint = tuner.MonitorPoint

// DriftStream describes a seeded, deterministic stream of workload drifts
// (diurnal cycles, flash crowds, schema/hot-set growth) expanded against
// the request workload and fired through the virtual clock.
type DriftStream = workload.StreamSpec

// DriftEvent is one scheduled profile shift of an expanded drift stream.
type DriftEvent = workload.DriftEvent

// Drift stream kinds.
const (
	StreamDiurnal = workload.StreamDiurnal
	StreamFlash   = workload.StreamFlash
	StreamGrowth  = workload.StreamGrowth
)

// DriftStreamKinds lists the built-in drift stream kinds.
func DriftStreamKinds() []string { return workload.StreamKinds() }

// GenerateDriftStream expands a stream spec against a base workload into
// its ordered drift events, ready for Request.Drifts.
func GenerateDriftStream(base *Workload, spec DriftStream) ([]DriftEvent, error) {
	return workload.GenerateStream(base, spec)
}

// Request describes one tuning request (§2.1): what to tune, with which
// workload, under which rules, for how long, and how many cloned CDBs to
// explore with.
type Request struct {
	Dialect  Dialect
	Type     InstanceType // zero value: type F (8 cores / 32 GB)
	Workload *Workload
	// Knobs lists the knobs to initialize for tuning; empty selects the
	// DBA's 65-knob set for the dialect.
	Knobs []string
	Rules *Rules
	// Budget is the tuning time budget in virtual time (default 70 h).
	Budget time.Duration
	// Clones is the parallelization degree (HUNTER-N; default 1).
	Clones int
	Seed   int64

	// Registry enables online model reuse when non-nil.
	Registry *ReuseRegistry

	// Drifts schedules workload drifts (§5): once the virtual clock
	// passes an event's At, stress tests switch to its Profile, the
	// baseline is re-measured and best-so-far tracking restarts — while
	// the tuner keeps its learned state. GenerateDriftStream expands a
	// seeded stream into this list. With Safety set the switches are
	// silent: the run only learns of them through the guard's drift
	// detection.
	Drifts []DriftEvent

	// Safety arms the online safe-tuning loop: candidates deploy to the
	// user's instance *during* the run behind canary measurement, trust
	// region and rolling-baseline guardrails, with SLO monitoring and
	// automatic rollback (see SafetyOptions). Nil keeps the classic batch
	// behaviour: one deploy at the end.
	Safety *SafetyOptions

	// Logger receives structured progress events (session setup,
	// best-so-far improvements, drift, deployment). Nil disables logging.
	Logger *slog.Logger

	// Recorder receives spans, counters and gauges for the run. Nil
	// disables telemetry.
	Recorder *Recorder

	// Status receives live SessionStatus updates (phase changes, wave
	// boundaries, completion) — typically a StatusRegistry backing an
	// IntrospectionServer. Nil disables status publishing.
	Status StatusSink

	// Checkpoint enables durable snapshots of the whole run (session,
	// simulated fleet, learned models, telemetry) at stress-wave
	// boundaries. A killed run continues from its last snapshot with
	// Resume, bit-identically to an uninterrupted run. Nil disables
	// checkpointing.
	Checkpoint *CheckpointPolicy

	// Chaos arms deterministic fault injection (crashes, stragglers,
	// transient control-plane errors…) and the self-healing loop that
	// survives it. Nil disables injection.
	Chaos *ChaosPlan

	// Eval selects opt-in evaluation-cost optimizations (wave dedup,
	// warm-state deltas). Nil keeps them off, with output byte-identical
	// to the unoptimized path.
	Eval *EvalOptions
}

// EvalOptions selects the evaluation-cost optimizations of a run: wave
// dedup (byte-identical configurations in a batch stress-tested once) and
// warm-state deltas (pool-shape and LRU-policy reconfigurations adjust
// the warm buffer pool in place instead of rebuilding it).
type EvalOptions = tuner.EvalOptions

// CheckpointPolicy configures durable run snapshots: the directory the
// checkpoint file lives in, how many stress waves pass between snapshots,
// and an optional stop-after-wave for controlled interruption tests.
type CheckpointPolicy = tuner.CheckpointPolicy

// ErrStopRequested reports that a run checkpointed and stopped because
// CheckpointPolicy.StopAfterWaves was reached; continue it with Resume.
var ErrStopRequested = tuner.ErrStopRequested

// CheckpointFileName is the snapshot file maintained inside a checkpoint
// directory.
const CheckpointFileName = tuner.CheckpointFileName

// PeekCheckpoint reports the wave and virtual-clock reading a checkpoint
// directory's snapshot was taken at, verifying the file's integrity.
func PeekCheckpoint(dir string) (wave int, clock time.Duration, err error) {
	return tuner.PeekCheckpoint(filepath.Join(dir, CheckpointFileName))
}

// Result is the outcome of a tuning run.
type Result struct {
	// Best is the recommended configuration, deployed on the user's
	// instance at the end of the run.
	Best Config
	// BestPerf is its measured performance on a cloned instance.
	BestPerf Perf
	// DefaultPerf is the default configuration's performance (baseline).
	DefaultPerf Perf
	// Fitness is the Eq. 1 score of Best against DefaultPerf.
	Fitness float64
	// RecommendationTime is the virtual time at which the tuner first
	// reached 98% of its final fitness.
	RecommendationTime time.Duration
	// Elapsed is the total virtual time consumed.
	Elapsed time.Duration
	// Steps is the number of stress-tested configurations.
	Steps int
	// Curve is the best-so-far trajectory.
	Curve []CurvePoint
	// TopKnobs are the knobs RF sifting selected for fine tuning.
	TopKnobs []string
	// CompressedStateDim is the PCA dimension chosen.
	CompressedStateDim int
	// ReusedModel reports whether a historical model was fine-tuned.
	ReusedModel bool
	// Resilience is the fault summary of a run with a chaos plan armed
	// (nil otherwise). When the whole clone fleet was lost, Best is the
	// baseline configuration rather than a tuned one and the call also
	// returns ErrFleetLost.
	Resilience *ResilienceReport
	// Safety is the online safety loop's summary (nil without
	// Request.Safety). In a safe run Best/BestPerf describe what the loop
	// left deployed on the user instance, not a final batch deploy.
	Safety *SafetyReport
	// DeployedTimeline is the deployed-config monitoring timeline of a
	// safe run (nil otherwise).
	DeployedTimeline []MonitorPoint
}

// CurvePoint is one best-so-far improvement.
type CurvePoint struct {
	Time time.Duration
	Perf Perf
	Step int
}

// Tune runs HUNTER on a request and returns the result.
func Tune(req Request) (*Result, error) { return TuneContext(context.Background(), req) }

// TuneContext is Tune with cancellation. Cancelling the context stops the
// run at the next stress-test boundary; the best configuration found so
// far is still returned.
func TuneContext(ctx context.Context, req Request) (*Result, error) {
	if req.Workload == nil {
		return nil, fmt.Errorf("hunter: request needs a workload")
	}
	s, err := tuner.NewSessionContext(ctx, toTunerRequest(req))
	if err != nil {
		return nil, err
	}
	defer s.Close()
	for _, ev := range req.Drifts {
		if err := s.ScheduleDrift(ev.At, ev.Profile); err != nil {
			return nil, err
		}
	}
	h := newCore(req)
	if err := h.Tune(s); err != nil {
		if errors.Is(err, ErrFleetLost) {
			return baselineResult(s), err
		}
		return nil, err
	}
	return finish(s, h, req.Registry)
}

// Resume continues a checkpointed run from the snapshot in the request's
// Checkpoint.Dir. The request must describe the same run the checkpoint
// came from (same workload, seed, clones, budget, rules…) and the resumed
// run proceeds bit-identically to one that was never interrupted.
func Resume(req Request) (*Result, error) { return ResumeContext(context.Background(), req) }

// ResumeContext is Resume with cancellation.
func ResumeContext(ctx context.Context, req Request) (*Result, error) {
	if req.Workload == nil {
		return nil, fmt.Errorf("hunter: request needs a workload")
	}
	if req.Checkpoint == nil || req.Checkpoint.Dir == "" {
		return nil, fmt.Errorf("hunter: Resume needs Checkpoint.Dir")
	}
	path := filepath.Join(req.Checkpoint.Dir, CheckpointFileName)
	s, f, err := tuner.ResumeSession(ctx, toTunerRequest(req), path)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	// The drift queue rides the checkpoint; verify it matches the schedule
	// this request would program on a fresh run, so a resume cannot
	// silently continue under different drift plans.
	if err := s.VerifyScheduledDrifts(req.Drifts); err != nil {
		return nil, err
	}
	h := newCore(req)
	if err := h.ResumeTune(s, f); err != nil {
		if errors.Is(err, ErrFleetLost) {
			return baselineResult(s), err
		}
		return nil, err
	}
	return finish(s, h, req.Registry)
}

// toTunerRequest lowers the public request into the session request.
func toTunerRequest(req Request) tuner.Request {
	return tuner.Request{
		Dialect:    req.Dialect,
		Type:       req.Type,
		Workload:   req.Workload,
		KnobNames:  req.Knobs,
		Rules:      req.Rules,
		Budget:     req.Budget,
		Clones:     req.Clones,
		Seed:       req.Seed,
		Logger:     req.Logger,
		Recorder:   req.Recorder,
		Status:     req.Status,
		Checkpoint: req.Checkpoint,
		Chaos:      req.Chaos,
		Eval:       req.Eval,
		Safety:     req.Safety,
	}
}

// newCore builds the hybrid tuner from the public request.
func newCore(req Request) *core.Hunter {
	return core.New(core.Options{Registry: req.Registry})
}

// finish commits the trained model to the request's registry and
// assembles the result. A batch run deploys the best verified
// configuration now; a safe online run already deployed during tuning, so
// the result reports what the safety loop left on the user instance.
func finish(s *tuner.Session, h *core.Hunter, reg *ReuseRegistry) (*Result, error) {
	if m, ok := h.Model(); ok {
		reg.Commit(m)
	}
	recTime, _ := s.Curve().RecommendationTime(s.DefaultPerf, s.Alpha, 0.98)
	res := &Result{
		DefaultPerf:        s.DefaultPerf,
		RecommendationTime: recTime,
		Elapsed:            s.Elapsed(),
		Steps:              s.Steps(),
		TopKnobs:           h.TopKnobs(),
		CompressedStateDim: h.PCADim(),
		ReusedModel:        h.Reused(),
		Resilience:         s.Resilience(),
	}
	if cfg, perf, fit, ok := s.OnlineDeployed(); ok {
		res.Best, res.BestPerf, res.Fitness = cfg, perf, fit
		res.Safety = s.Safety()
		res.DeployedTimeline = s.DeployedTimeline()
	} else {
		best, err := s.DeployBest()
		if err != nil {
			return nil, err
		}
		res.Best, res.BestPerf, res.Fitness = best.Knobs, best.Perf, s.Fitness(best.Perf)
	}
	for _, p := range s.Curve() {
		res.Curve = append(res.Curve, CurvePoint{Time: p.Time, Perf: p.Perf, Step: p.Step})
	}
	return res, nil
}

// baselineResult is the fleet-lost fallback: with no clones left to
// verify candidates on, the safe outcome is the user instance's current
// (baseline) configuration and its measured default performance. The
// best-so-far curve up to the collapse is preserved for diagnosis.
func baselineResult(s *tuner.Session) *Result {
	res := &Result{
		Best:        s.User.Config(),
		BestPerf:    s.DefaultPerf,
		DefaultPerf: s.DefaultPerf,
		Fitness:     s.Fitness(s.DefaultPerf),
		Elapsed:     s.Elapsed(),
		Steps:       s.Steps(),
		Resilience:  s.Resilience(),
		Safety:      s.Safety(),
	}
	for _, p := range s.Curve() {
		res.Curve = append(res.Curve, CurvePoint{Time: p.Time, Perf: p.Perf, Step: p.Step})
	}
	return res
}

// Catalog returns the knob catalog for a dialect (name, kind, range,
// default, restart requirement of every knob).
func Catalog(d Dialect) []knob.Spec {
	if d == Postgres {
		return knob.Postgres().Specs()
	}
	return knob.MySQL().Specs()
}

// WriteConfigFile renders a configuration in the dialect's native
// configuration-file syntax (a my.cnf [mysqld] section, or a
// postgresql.conf fragment), ready to apply to a real server.
func WriteConfigFile(w io.Writer, d Dialect, cfg Config) error {
	cat := knob.MySQL()
	if d == Postgres {
		cat = knob.Postgres()
	}
	return knob.WriteConfigFile(w, cat, cfg)
}

// FormatKnob renders a knob value the way a DBA would read it ("16 GB",
// "O_DIRECT", "ON"). Unknown knobs format as plain numbers.
func FormatKnob(d Dialect, name string, value float64) string {
	cat := knob.MySQL()
	if d == Postgres {
		cat = knob.Postgres()
	}
	spec, ok := cat.Spec(name)
	if !ok {
		return fmt.Sprintf("%g", value)
	}
	return spec.FormatValue(value)
}
