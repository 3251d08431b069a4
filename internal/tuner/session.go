package tuner

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"time"

	"github.com/hunter-cdb/hunter/internal/chaos"
	"github.com/hunter-cdb/hunter/internal/cloud"
	"github.com/hunter-cdb/hunter/internal/knob"
	"github.com/hunter-cdb/hunter/internal/metrics"
	"github.com/hunter-cdb/hunter/internal/safety"
	"github.com/hunter-cdb/hunter/internal/sim"
	"github.com/hunter-cdb/hunter/internal/simdb"
	"github.com/hunter-cdb/hunter/internal/telemetry"
	"github.com/hunter-cdb/hunter/internal/workload"
)

// Request is a user's tuning request (§2.1 Workflow): an instance, a
// workload, personalized Rules, a time budget and a parallelism degree.
type Request struct {
	Dialect  simdb.Dialect
	Type     cloud.InstanceType
	Workload *workload.Profile
	// KnobNames are the knobs initialized for tuning (the DBA's 65-knob
	// selection by default).
	KnobNames []string
	Rules     *knob.Rules
	Budget    time.Duration
	// Clones is the number of cloned CDBs to stress-test in parallel
	// (HUNTER-N). Minimum 1.
	Clones int
	Seed   int64
	// StopAtFitness, when positive, ends the session early once the
	// best-so-far fitness (Eq. 1, relative to DefaultPerf) reaches this
	// target — the personalized-SLO stop: a tenant that only needs "20%
	// better than default" should not burn its whole budget chasing the
	// global optimum. The check runs at wave boundaries on virtual time
	// only, so it is fully deterministic; zero (the default) disables it.
	StopAtFitness float64
	// Logger receives structured progress events (session setup, drift,
	// best-so-far improvements, final deployment). Nil disables logging.
	Logger *slog.Logger
	// Recorder receives spans, counters and gauges for this session. Nil
	// (the default) disables telemetry at zero cost; the recorder is
	// passive, so enabling it never changes tuning results.
	Recorder *telemetry.Recorder
	// Checkpoint enables durable snapshots of the whole session at stress
	// wave boundaries. Nil disables checkpointing at zero cost; like the
	// recorder, checkpointing is passive and never changes tuning results.
	Checkpoint *CheckpointPolicy
	// Chaos arms deterministic fault injection on the session's cloud (nil
	// or an all-zero profile disables it — the default). With chaos off
	// every byte of session output is unchanged.
	Chaos *chaos.Plan
	// Eval selects opt-in evaluation-cost optimizations (wave dedup,
	// warm-state deltas). Nil — the default — keeps them all off, with
	// session output byte-identical to the unoptimized path.
	Eval *EvalOptions
	// Status receives live session status updates (phase, wave, best
	// objective) for the introspection plane. Nil disables publishing at
	// zero cost; like the recorder, a sink is passive and never changes
	// tuning results.
	Status StatusSink
	// Safety arms the online safe-tuning loop: candidate configs are
	// deployed to the user's instance *during* the run, gated by canary
	// waves, trust-region steps and rolling-baseline guardrails, monitored
	// against SLOs, and rolled back on sustained regression (see
	// internal/safety). Nil — the default — keeps the session a pure batch
	// optimizer with byte-identical output to earlier versions.
	Safety *safety.Options
}

// EvalOptions selects the evaluation-cost optimizations of a session. The
// zero value keeps every optimization off.
type EvalOptions struct {
	// DedupWaves evaluates byte-identical configurations in a batch once
	// and fans the measured sample out to every duplicate position
	// (common once a GA population converges). One stress test, one pool
	// entry, one step; virtual time is charged for the waves actually run.
	DedupWaves bool
	// WarmStateDeltas lets a reconfiguration that moves only the pool
	// shape or LRU policy adjust each engine's warm buffer pool in place
	// (online resize / dynamic policy change) instead of rebuilding and
	// re-warming it.
	WarmStateDeltas bool
}

func (r *Request) withDefaults() error {
	if r.Workload == nil {
		return fmt.Errorf("tuner: request needs a workload")
	}
	if err := r.Workload.Validate(); err != nil {
		return err
	}
	if r.Type.Cores == 0 {
		r.Type, _ = cloud.TypeByName("F")
	}
	if len(r.KnobNames) == 0 {
		if r.Dialect == simdb.Postgres {
			r.KnobNames = knob.PostgresTuned65()
		} else {
			r.KnobNames = knob.MySQLTuned65()
		}
	}
	if r.Rules == nil {
		r.Rules = knob.NewRules()
	}
	if r.Budget <= 0 {
		r.Budget = 70 * time.Hour
	}
	if r.Clones < 1 {
		r.Clones = 1
	}
	return nil
}

// Session is one budgeted tuning run: a user instance, its clones, the
// shared pool, and all virtual-time accounting. Tuners drive it through
// Evaluate/EvaluateBatch and read the pool; it records the best-so-far
// curve every figure consumes.
type Session struct {
	Req      Request
	Clock    *sim.Clock
	Provider *cloud.Provider
	User     *cloud.Instance
	Clones   []*cloud.Instance
	Space    *knob.Space
	Pool     *SharedPool
	Costs    StepCosts

	// DefaultPerf is the measured performance of the default
	// configuration — the Eq. 1 baseline.
	DefaultPerf simdb.Perf

	Alpha float64
	RNG   *sim.RNG

	// Trace is the session's telemetry handle (nil when no recorder was
	// requested). Every Clock.Advance in this file is mirrored by a
	// Trace.Charge with the same duration, so the trace's accounted time
	// equals Elapsed() exactly.
	Trace *telemetry.SessionTrace
	tel   *sessionTel

	actors []*Actor
	ctx    context.Context

	// run is the session's durable progress; a checkpoint encodes it whole.
	run runState

	// guard is the online safety state machine (nil without Req.Safety).
	guard *safety.Guard

	// Checkpoint bookkeeping: the wave the last snapshot covered, and the
	// request's pre-drift workload name (part of the resume fingerprint —
	// Req.Workload is replaced when drift fires).
	lastCkptWave int
	origWorkload string

	// Chaos runtime (all zero when no plan is armed): the fault injector
	// and the per-actor wave deadline.
	chaos    *chaos.Engine
	deadline time.Duration

	// Status plane (all zero when no sink is attached): the registry key,
	// the display name and the current algorithm phase.
	statusKey  string
	statusName string
	phase      string
}

// runState is the session's durable progress, kept in one struct so a
// checkpoint encodes it whole and a resume assigns it back.
type runState struct {
	Steps     int
	WaveCount int
	Curve     Curve
	BestFit   float64
	TargetHit bool

	// Scheduled drifts, ordered by firing time. DriftIdx is the count
	// already fired; BestSince fences Best() to samples measured on the
	// current workload (it moves on every oracle drift or detection).
	Drifts    []scheduledDrift
	DriftIdx  int
	BestSince time.Duration

	// Resil is the supervisor's fault tally. SinceMonitor and SinceDeploy
	// pace the online safety loop in waves, and MonitorLog is its
	// deployed-config timeline.
	Resil        ResilienceStats
	SinceMonitor int
	SinceDeploy  int
	MonitorLog   []MonitorPoint

	// The online safety loop's configurations (zero without Req.Safety):
	// the user's default, what is deployed on the user instance, and the
	// last-known-good fallback. Default.Perf stays zero: the default's
	// performance is DefaultPerf, which drift handling re-measures.
	Default  deployment
	Deployed deployment
	LastGood deployment
}

// deployment is a configuration the online safety loop can put on the
// user instance: its knobs, normalized point, and the fitness and
// performance it was deployed on.
type deployment struct {
	Cfg   knob.Config
	Point []float64
	Fit   float64
	Perf  simdb.Perf
}

// scheduledDrift is one pending workload switch in the session's ordered
// drift queue.
type scheduledDrift struct {
	At time.Duration
	To *workload.Profile
}

// sessionTel is the tuner's counter, gauge and histogram set, resolved
// once per session. backoffH stays nil (the disabled handle) unless a
// chaos plan is armed, matching the provider's convention that fault
// metrics only exist when faults can occur; the safety counters likewise
// only exist when the online safety loop is armed.
type sessionTel struct {
	waves    *telemetry.Counter
	samples  *telemetry.Counter
	evals    *telemetry.Counter
	best     *telemetry.Gauge
	waveH    *telemetry.Histogram // virtual duration of each stress wave
	stepH    *telemetry.Histogram // per-actor stress-step virtual costs
	backoffH *telemetry.Histogram // chaos retry/backoff delays (armed only)

	// Online safety counters (armed only).
	canaries  *telemetry.Counter
	deploys   *telemetry.Counter
	blocks    *telemetry.Counter
	rollbacks *telemetry.Counter
	sloViol   *telemetry.Counter
	drifts    *telemetry.Counter
}

// resolveSessionTel builds the handle set against a recorder. Kept
// separate from NewSession so checkpoint resume re-resolves the same set.
func resolveSessionTel(r *telemetry.Recorder, chaosArmed, safetyArmed bool) *sessionTel {
	t := &sessionTel{
		waves:   r.Counter("tuner.stress_waves"),
		samples: r.Counter("tuner.samples_pooled"),
		evals:   r.Counter("tuner.configs_evaluated"),
		best:    r.Gauge("tuner.best_fitness"),
		waveH:   r.Histogram("tuner.wave_seconds"),
		stepH:   r.Histogram("tuner.actor_step_seconds"),
	}
	if chaosArmed {
		t.backoffH = r.Histogram("chaos.backoff_seconds")
	}
	if safetyArmed {
		t.canaries = r.Counter("tuner.canary_waves")
		t.deploys = r.Counter("tuner.online_deploys")
		t.blocks = r.Counter("tuner.guardrail_blocks")
		t.rollbacks = r.Counter("tuner.rollbacks")
		t.sloViol = r.Counter("tuner.slo_violations")
		t.drifts = r.Counter("tuner.drifts_detected")
	}
	return t
}

// NewSession provisions the user instance and its clones (charging clone
// time), builds the rule-constrained search space, and measures the
// default configuration's performance.
func NewSession(req Request) (*Session, error) {
	return NewSessionContext(context.Background(), req)
}

// NewSessionContext is NewSession with cancellation support.
func NewSessionContext(ctx context.Context, req Request) (*Session, error) {
	s, err := newSession(ctx, req)
	if err != nil {
		return nil, err
	}
	req = s.Req
	// Arm fault injection before the recorder and the fleet: provisioning
	// below must already see the fault plan. With no plan this is a no-op
	// and consumes nothing from the session RNG.
	s.armChaos(req.Chaos)
	if req.Recorder != nil {
		s.Trace = req.Recorder.Session(
			fmt.Sprintf("%s/%s", req.Dialect, req.Workload.Name), s.Clock.Now)
		s.tel = resolveSessionTel(req.Recorder, s.chaos != nil, req.Safety != nil)
		// Attach the control plane before provisioning so the user
		// instance, its clones and their engines all report.
		s.Provider.SetRecorder(req.Recorder)
	}

	user, err := s.createWithRetry(req.Type, req.Dialect)
	if err != nil {
		return nil, err
	}
	s.User = user
	for i := 0; i < req.Clones; i++ {
		c, err := s.cloneWithRetry(user)
		if err != nil {
			// Release the partial fleet: a failed session must not leave
			// instances active on the provider.
			s.releaseFleet()
			return nil, fmt.Errorf("tuner: cloning CDB %d: %w", i, err)
		}
		s.Clones = append(s.Clones, c)
		s.actors = append(s.actors, &Actor{ID: i, Clone: c})
	}
	// Clones are created in parallel: one clone-time charge.
	s.charge("clone_fleet", cloud.CloneTime)
	if s.warmStateDeltas() {
		applyWarmDeltas(s.User)
		applyWarmDeltas(s.Clones...)
	}

	// Measure the default configuration once on a clone; this also warms
	// the clone's buffer pool.
	perf, _, took, err := s.Clones[0].StressTest(req.Workload, s.Costs.WorkloadExecution)
	if err != nil {
		s.releaseFleet()
		return nil, fmt.Errorf("tuner: default stress test: %w", err)
	}
	s.charge("warmup_stress", took)
	s.DefaultPerf = perf
	if err := s.armSafety(req.Safety); err != nil {
		s.releaseFleet()
		return nil, err
	}
	s.initStatus()
	s.publishStatus(false)
	s.logf("session ready",
		"workload", req.Workload.Name,
		"dialect", req.Dialect.String(),
		"instance", req.Type.Name,
		"clones", req.Clones,
		"budget_h", req.Budget.Hours(),
		"knobs", s.Space.Dim(),
		"default_tps", perf.ThroughputTPS)
	return s, nil
}

// newSession builds what follows from the request alone: the defaulted
// request, the rule-constrained search space, the control plane, the RNG
// and an empty run. It touches nothing outside the returned session, so
// NewSessionContext and ResumeSession fail after it without side effects.
func newSession(ctx context.Context, req Request) (*Session, error) {
	if err := req.withDefaults(); err != nil {
		return nil, err
	}
	var cat *knob.Catalog
	if req.Dialect == simdb.Postgres {
		cat = knob.Postgres()
	} else {
		cat = knob.MySQL()
	}
	if err := req.Rules.Validate(cat); err != nil {
		return nil, err
	}
	space, err := knob.NewSpace(cat, req.KnobNames, req.Rules)
	if err != nil {
		return nil, err
	}
	return &Session{
		Req:          req,
		Clock:        sim.NewClock(),
		Provider:     cloud.NewProvider(req.Clones+4, req.Seed^0x5eed),
		Space:        space,
		Pool:         NewSharedPool(),
		Costs:        DefaultStepCosts(),
		Alpha:        req.Rules.EffectiveAlpha(),
		RNG:          sim.NewRNG(req.Seed),
		ctx:          ctx,
		run:          runState{BestFit: math.Inf(-1)},
		origWorkload: req.Workload.Name,
	}, nil
}

// charge advances the virtual clock and mirrors the advance into the
// session trace as a step span. It is the only way session code moves the
// clock, which is what makes the trace's budget accounting exact.
func (s *Session) charge(step string, d time.Duration) {
	s.Clock.Advance(d)
	s.Trace.Charge(step, d)
}

// logf emits a structured progress event when a logger is configured.
func (s *Session) logf(msg string, args ...any) {
	if s.Req.Logger == nil {
		return
	}
	s.Req.Logger.Info(msg, append([]any{"t_h", s.Clock.Hours()}, args...)...)
}

// Close releases every provisioned instance and seals the session trace.
func (s *Session) Close() {
	s.publishStatus(true)      // final status while the fleet size is still real
	hours := s.InstanceHours() // before the fleet is released
	s.releaseFleet()
	if s.Trace != nil {
		best := s.run.BestFit
		if math.IsInf(best, 0) || math.IsNaN(best) {
			best = 0
		}
		s.Trace.Finish(
			telemetry.A("steps", float64(s.run.Steps)),
			telemetry.A("samples", float64(s.Pool.Len())),
			telemetry.A("best_fitness", best),
			telemetry.A("instance_hours", hours),
		)
	}
}

// Elapsed returns the virtual time consumed so far.
func (s *Session) Elapsed() time.Duration { return s.Clock.Now() }

// TargetReached reports whether the session stopped because the
// StopAtFitness target was met (as opposed to spending its whole budget).
func (s *Session) TargetReached() bool { return s.run.TargetHit }

// Exhausted reports whether the time budget is spent, the personalized
// fitness target has been reached, or the context is cancelled.
func (s *Session) Exhausted() bool {
	select {
	case <-s.ctx.Done():
		return true
	default:
	}
	return s.run.TargetHit || s.Clock.Now() >= s.Req.Budget
}

// Remaining returns the unused budget.
func (s *Session) Remaining() time.Duration {
	r := s.Req.Budget - s.Clock.Now()
	if r < 0 {
		return 0
	}
	return r
}

// Steps returns the number of stress-tested configurations.
func (s *Session) Steps() int { return s.run.Steps }

// InstanceHours returns the cost of the session so far in instance-hours:
// every cloned CDB plus the user's instance, for the elapsed virtual time
// (the cost axis of Figure 11).
func (s *Session) InstanceHours() float64 {
	return float64(len(s.Clones)+1) * s.Elapsed().Hours()
}

// Curve returns the recorded best-so-far trajectory.
func (s *Session) Curve() Curve { return append(Curve(nil), s.run.Curve...) }

// Fitness evaluates Eq. 1 for a performance against this session's
// default baseline, α, and latency-percentile objective.
func (s *Session) Fitness(p simdb.Perf) float64 {
	return p.FitnessTail(s.DefaultPerf, s.Alpha, s.Req.Rules.Tail99)
}

// ChargeModelUpdate advances the clock by the Table 1 model-update cost;
// tuners call it after each learning step.
func (s *Session) ChargeModelUpdate() {
	s.charge("model_update", s.Costs.ModelUpdate)
}

// Evaluate stress-tests a single normalized point (on clone 0). If an
// injected fault swallows the sample (degraded wave with no survivors) it
// returns ErrSampleLost rather than a sample.
func (s *Session) Evaluate(point []float64) (Sample, error) {
	out, err := s.EvaluateBatch([][]float64{point})
	if err != nil {
		return Sample{}, err
	}
	if len(out) == 0 {
		return Sample{}, ErrSampleLost
	}
	return out[0], nil
}

// EvaluateBatch stress-tests a batch of normalized points (in the
// session's full space). See EvaluateConfigs for semantics.
func (s *Session) EvaluateBatch(points [][]float64) ([]Sample, error) {
	cfgs := make([]knob.Config, len(points))
	for i, pt := range points {
		cfgs[i] = s.Space.Decode(pt)
	}
	return s.EvaluateConfigs(cfgs)
}

// EvaluateConfigs stress-tests a batch of configurations, distributing
// them across the cloned CDBs in waves. Virtual time advances by the sum
// over waves of the slowest instance in each wave — the parallelization
// scheme of §2.2. Samples are added to the Shared Pool and the best-so-far
// curve is extended. Sample points are encoded in the session's full
// space regardless of which space the caller planned in.
//
// It returns ErrBudgetExhausted once the budget is spent; samples measured
// before exhaustion are still returned. Under an armed chaos plan a wave
// that loses actors to injected faults completes with the surviving
// samples (the wave is marked partial); only total fleet loss returns
// ErrFleetLost. Real stress-test errors from every failing actor are
// aggregated with errors.Join and propagate after the wave is accounted.
//
// With EvalOptions.DedupWaves on, byte-identical configurations in the
// batch are stress-tested once and the sample is fanned out to every
// duplicate position; see EvalOptions.
func (s *Session) EvaluateConfigs(cfgs []knob.Config) ([]Sample, error) {
	if !s.dedupWaves() || len(cfgs) < 2 {
		return s.evaluateConfigs(cfgs)
	}
	// Identify byte-identical configurations (by canonical key) in
	// first-occurrence order, so the unique batch is a stable subsequence
	// of the caller's batch.
	uniq := make([]knob.Config, 0, len(cfgs))
	owner := make([]int, len(cfgs)) // original position → unique position
	byKey := make(map[string]int, len(cfgs))
	for i, c := range cfgs {
		k := c.Key()
		j, ok := byKey[k]
		if !ok {
			j = len(uniq)
			byKey[k] = j
			uniq = append(uniq, c)
		}
		owner[i] = j
	}
	if len(uniq) == len(cfgs) {
		return s.evaluateConfigs(cfgs)
	}
	if s.Trace != nil {
		s.Trace.Event("wave_dedup",
			telemetry.A("configs", float64(len(cfgs))),
			telemetry.A("unique", float64(len(uniq))))
	}
	samples, err := s.evaluateConfigs(uniq)
	// Fan each measured unique sample out to every original position
	// holding that configuration. Duplicates share the unique run's
	// Step/Perf/State/Point — one stress test, one pool entry, one step —
	// and carry their own batch Index; a unique sample lost to a fault
	// loses its duplicates too.
	byUnique := make(map[int]Sample, len(samples))
	for _, smp := range samples {
		byUnique[smp.Index] = smp
	}
	out := make([]Sample, 0, len(cfgs))
	for i := range cfgs {
		smp, ok := byUnique[owner[i]]
		if !ok {
			continue
		}
		smp.Index = i
		out = append(out, smp)
	}
	return out, err
}

// dedupWaves reports whether wave dedup is enabled for this session.
func (s *Session) dedupWaves() bool { return s.Req.Eval != nil && s.Req.Eval.DedupWaves }

// warmStateDeltas reports whether warm-state deltas are enabled.
func (s *Session) warmStateDeltas() bool { return s.Req.Eval != nil && s.Req.Eval.WarmStateDeltas }

// applyWarmDeltas switches the given instances' engines to warm-state
// delta evaluation. The engine flag is runtime configuration excluded from
// snapshots, so fleet builders call this on creation, replacement and
// restore alike.
func applyWarmDeltas(insts ...*cloud.Instance) {
	for _, in := range insts {
		if in != nil {
			in.Engine().SetWarmDeltas(true)
		}
	}
}

// evaluateConfigs is the wave loop behind EvaluateConfigs.
func (s *Session) evaluateConfigs(cfgs []knob.Config) ([]Sample, error) {
	out := make([]Sample, 0, len(cfgs))
	if len(s.actors) == 0 {
		return out, ErrFleetLost
	}
	for start := 0; start < len(cfgs); {
		if s.Exhausted() {
			return out, ErrBudgetExhausted
		}
		// The fleet can shrink between waves (quarantine, failed
		// replacement), so the wave width is re-read every pass.
		n := len(s.actors)
		if n == 0 {
			return out, ErrFleetLost
		}
		s.maybeDrift()
		end := start + n
		if end > len(cfgs) {
			end = len(cfgs)
		}
		wave := cfgs[start:end]
		// The Actors stress-test the wave concurrently; results come back
		// in actor order so bookkeeping stays deterministic.
		results := runWave(s.actors[:len(wave)], wave, s.Req.Workload, s.Costs, s.chaos)
		// An erroring actor still occupied its instance until the error, so
		// the wave is charged by the slowest actor — erroring or not — and
		// the finished actors' samples are recorded before any error
		// propagates. A hung or pathologically slow actor is abandoned at
		// the per-actor deadline: the wave never waits past it, and the
		// abandoned step's sample is lost.
		waveMax := time.Duration(0)
		var errs []error
		recorded, lost := 0, 0
		for k := range results {
			res := &results[k]
			if s.deadline > 0 && res.took > s.deadline {
				res.took = s.deadline
				res.timedOut = true
			}
			if res.took > waveMax {
				waveMax = res.took
			}
			s.run.Resil.Retries += int64(res.retries)
			s.run.Resil.BackoffTime += res.backoff
			switch {
			case res.timedOut:
				s.run.Resil.Timeouts++
				lost++
			case res.crashed || res.infra:
				lost++
			case res.execErr != nil:
				errs = append(errs, fmt.Errorf("tuner: actor %d (config %d): %w",
					s.actors[k].ID, start+k, res.execErr))
			default:
				s.run.Steps++
				state := metrics.Vector{}
				if res.state != nil {
					state = res.state
				}
				out = append(out, Sample{
					State: state,
					Knobs: wave[k],
					Point: s.Space.Encode(wave[k]),
					Perf:  res.perf,
					Step:  s.run.Steps,
					Index: start + k,
				})
				recorded++
			}
		}
		s.run.Resil.SamplesLost += int64(lost)
		s.Clock.Advance(waveMax)
		s.run.WaveCount++
		if s.Trace != nil { // guard keeps the attr slice off the disabled path
			s.Trace.Charge("stress_wave", waveMax,
				telemetry.A("configs", float64(len(wave))),
				telemetry.A("recorded", float64(recorded)))
			s.tel.waves.Add(1)
			s.tel.evals.Add(int64(len(wave)))
			s.tel.samples.Add(int64(recorded))
			s.tel.waveH.Observe(waveMax)
			// Per-actor fault/error events and step-cost observations,
			// post-join in actor order so the trace is deterministic; the
			// attr is the failing config index. (Histograms are additionally
			// order-independent, so observing here is belt and braces.)
			for k := range results {
				res := &results[k]
				s.tel.stepH.Observe(res.took)
				if res.backoff > 0 {
					s.tel.backoffH.Observe(res.backoff)
				}
				switch {
				case res.timedOut:
					s.Trace.Event("actor_timeout", telemetry.A("config", float64(start+k)))
				case res.crashed:
					s.Trace.Event("actor_crash", telemetry.A("config", float64(start+k)))
				case res.infra:
					s.Trace.Event("actor_transient", telemetry.A("config", float64(start+k)))
				case res.execErr != nil:
					s.Trace.Event("actor_error", telemetry.A("config", float64(start+k)))
				}
			}
			if lost > 0 {
				s.Trace.Event("wave_partial",
					telemetry.A("configs", float64(len(wave))),
					telemetry.A("recorded", float64(recorded)),
					telemetry.A("lost", float64(lost)))
			}
		}
		// Stamp completion time and record after the wave finishes.
		now := s.Clock.Now()
		for i := len(out) - recorded; i < len(out); i++ {
			out[i].Time = now
			s.Pool.Add(out[i])
			if f := s.Fitness(out[i].Perf); f > s.run.BestFit && !out[i].Perf.Failed {
				s.run.BestFit = f
				s.run.Curve = append(s.run.Curve, CurvePoint{Time: now, Perf: out[i].Perf, Step: out[i].Step})
				if s.Trace != nil {
					s.tel.best.Set(f)
					s.Trace.Event("best_improved",
						telemetry.A("fitness", f),
						telemetry.A("step", float64(out[i].Step)))
				}
				s.logf("best improved",
					"step", out[i].Step,
					"fitness", f,
					"tps", out[i].Perf.ThroughputTPS,
					"p95_ms", out[i].Perf.P95LatencyMs)
			}
		}
		// Personalized-SLO stop: checked once per wave boundary, after the
		// whole wave is accounted, so the stopping point depends only on
		// virtual time and measured fitness — never on worker interleaving.
		if t := s.Req.StopAtFitness; t > 0 && !s.run.TargetHit && s.run.BestFit >= t {
			s.run.TargetHit = true
			if s.Trace != nil {
				s.Trace.Event("target_reached",
					telemetry.A("fitness", s.run.BestFit),
					telemetry.A("target", t))
			}
			s.logf("fitness target reached", "fitness", s.run.BestFit, "target", t)
		}
		if lost > 0 {
			s.run.Resil.PartialWaves++
			s.logf("wave degraded",
				"configs", len(wave), "recorded", recorded, "lost", lost)
		}
		if s.chaos != nil {
			s.repairFleet(results)
		}
		if s.guard != nil {
			s.safetyStep()
		}
		s.publishStatus(false)
		if len(errs) > 0 {
			return out, errors.Join(errs...)
		}
		start = end
	}
	return out, nil
}

// ScheduleDrift enqueues a workload switch to p once the virtual clock
// passes at — the workload-drift scenario of Figure 10, generalized to an
// ordered queue so a whole drift *stream* (see workload.GenerateStream)
// can be scheduled up front. Drifts may be scheduled in any order and
// fire in At order; scheduling the same instant twice is allowed (later
// entries win, firing in insertion order within the wave that passes
// them). Scheduling at or before the current clock fires on the next
// wave boundary.
//
// When a drift fires on a session without the online safety loop, the
// default baseline is re-measured on the new workload and the
// best-so-far tracking restarts, while every tuner keeps its learned
// state (replay buffers, surrogate models, populations) — the oracle
// drift notification. With the safety loop armed the switch is silent:
// the running system only learns of the drift when the guard's
// divergence detector confirms it from monitoring probes.
func (s *Session) ScheduleDrift(at time.Duration, p *workload.Profile) error {
	if at < 0 {
		return fmt.Errorf("tuner: drift time %v is negative", at)
	}
	if p == nil {
		return fmt.Errorf("tuner: drift needs a profile")
	}
	if err := p.Validate(); err != nil {
		return err
	}
	// Stable insertion into the pending tail (indices >= DriftIdx): already
	// fired entries are history and never reordered.
	r := &s.run
	i := len(r.Drifts)
	for i > r.DriftIdx && r.Drifts[i-1].At > at {
		i--
	}
	r.Drifts = append(r.Drifts, scheduledDrift{})
	copy(r.Drifts[i+1:], r.Drifts[i:])
	r.Drifts[i] = scheduledDrift{At: at, To: p}
	return nil
}

// Drifted reports whether at least one scheduled drift has fired.
func (s *Session) Drifted() bool { return s.run.DriftIdx > 0 }

// ScheduledDrifts returns the firing times and profile names of the whole
// drift queue (fired and pending), for resume verification.
func (s *Session) ScheduledDrifts() []workload.DriftEvent {
	out := make([]workload.DriftEvent, len(s.run.Drifts))
	for i, d := range s.run.Drifts {
		out[i] = workload.DriftEvent{At: d.At, Profile: d.To}
	}
	return out
}

// maybeDrift fires every scheduled drift the clock has passed, in order.
func (s *Session) maybeDrift() {
	fired := false
	r := &s.run
	for r.DriftIdx < len(r.Drifts) && s.Clock.Now() >= r.Drifts[r.DriftIdx].At {
		d := r.Drifts[r.DriftIdx]
		r.DriftIdx++
		fired = true
		s.logf("workload drift", "to", d.To.Name)
		s.Trace.Event("workload_drift")
		s.Req.Workload = d.To
	}
	if !fired {
		return
	}
	if s.guard != nil {
		// Silent drift: the serving system is not told. The guard's
		// monitoring probes now run against the new workload; its divergence
		// detector is what re-baselines the session (see onDriftDetected).
		return
	}
	// Oracle notification: re-measure the default baseline on the new
	// workload and restart best-so-far tracking. One re-stress per batch of
	// due drifts — only the latest workload is ever measured.
	if perf, _, took, err := s.Clones[0].StressTest(s.Req.Workload, s.Costs.WorkloadExecution); err == nil {
		s.charge("drift_restress", took)
		s.DefaultPerf = perf
	}
	r.BestFit = math.Inf(-1)
	r.BestSince = r.Drifts[r.DriftIdx-1].At
	s.publishStatus(false)
	// The pre-drift samples stay in the pool (they are the history the
	// learning methods exploit) but the curve restarts from the drift.
}

// Best returns the best pooled sample so far under the session's
// objective. After a drift (oracle-fired or detected) only samples
// measured on the current workload count: earlier performances were
// measured on the old one.
func (s *Session) Best() (Sample, bool) {
	best, found := Sample{}, false
	bestF := math.Inf(-1)
	for _, smp := range s.Pool.All() {
		if smp.Time < s.run.BestSince {
			continue
		}
		if f := s.Fitness(smp.Perf); f > bestF {
			best, bestF, found = smp, f, true
		}
	}
	return best, found
}

// DeployBest deploys the best verified configuration onto the user's
// instance — done once, after tuning, per the availability design (§2.2).
func (s *Session) DeployBest() (Sample, error) {
	best, ok := s.Best()
	if !ok {
		return Sample{}, fmt.Errorf("tuner: no samples to deploy")
	}
	if v := s.Req.Rules.Violations(s.Space.Catalog(), best.Knobs); len(v) > 0 {
		return Sample{}, fmt.Errorf("tuner: best configuration violates rules: %v", v)
	}
	if _, err := s.deployToUser(best.Knobs); err != nil {
		return Sample{}, fmt.Errorf("tuner: deploying to user instance: %w", err)
	}
	if s.Trace != nil {
		s.Trace.Event("deploy_user", telemetry.A("fitness", s.Fitness(best.Perf)))
	}
	s.logf("deployed best configuration to user instance",
		"fitness", s.Fitness(best.Perf), "tps", best.Perf.ThroughputTPS)
	return best, nil
}

// deployToUser pushes a configuration onto the user's instance, retrying
// transient control-plane faults like any other step — one flaky API call
// must not discard a whole tuning run. It returns the deploy's virtual
// duration *uncharged*: the batch DeployBest path ignores it (the final
// deploy happens after the budget), while the online safety loop charges
// it against the budget since the instance is live mid-run.
func (s *Session) deployToUser(cfg knob.Config) (time.Duration, error) {
	var (
		derr error
		took time.Duration
	)
	for attempt := 0; ; attempt++ {
		_, took, derr = s.User.Deploy(cfg, s.Costs.KnobsDeployment)
		if derr == nil || !cloud.IsTransient(derr) || attempt >= s.chaos.MaxRetries() {
			break
		}
		b := s.chaos.Backoff(attempt)
		s.charge("deploy_backoff", b)
		s.run.Resil.Retries++
		s.run.Resil.BackoffTime += b
		if s.tel != nil {
			s.tel.backoffH.Observe(b)
		}
	}
	return took, derr
}

// Tuner is a tuning method: it drives a session until the budget is
// exhausted (returning ErrBudgetExhausted from an evaluation is the normal
// way to stop).
type Tuner interface {
	Name() string
	Tune(s *Session) error
}
