package tuner

// This file is the session half of the online safe-tuning loop (ROADMAP
// item 2, after OnlineTune's assess-deploy-monitor-rollback cycle). With
// Request.Safety set the session stops being a pure batch optimizer: at
// wave boundaries it monitors the *user's* serving instance against SLOs
// and a rolling baseline, promotes improved pool candidates through a
// replicated canary gate under a trust region, and rolls the instance
// back to the last-known-good configuration on sustained violation.
//
// Determinism: every step here runs on the single wave-loop goroutine at
// a wave boundary, consumes no RNG, and measures through the same
// virtual-clock charge discipline as the wave loop itself. The guard is
// pure bookkeeping (internal/safety), so the whole loop is a function of
// the session's deterministic measurement stream — byte-identical at any
// worker count, and its state snapshots into the checkpoint container.

import (
	"fmt"
	"math"
	"sort"
	"time"

	"github.com/hunter-cdb/hunter/internal/knob"
	"github.com/hunter-cdb/hunter/internal/safety"
	"github.com/hunter-cdb/hunter/internal/simdb"
	"github.com/hunter-cdb/hunter/internal/telemetry"
)

// blockReasonCodes gives each guardrail-block reason a stable numeric code
// for telemetry events (event attrs are numeric).
var blockReasonCodes = map[string]float64{
	"canary_failed":   1,
	"slo_p99":         2,
	"slo_tps":         3,
	"baseline_margin": 4,
	"no_improvement":  5,
}

// MonitorPoint is one probe of the deployed configuration's live
// performance — the deployed-config timeline the safety experiment plots.
type MonitorPoint struct {
	Time        time.Duration
	Perf        simdb.Perf
	BaselineTPS float64
	Violation   bool
}

// SafetyReport is the session's online-safety summary: the guard's tally
// plus what ended up deployed on the user instance.
type SafetyReport struct {
	safety.Report
	DeployedTPS      float64 `json:"deployed_tps"`
	DeployedFitness  float64 `json:"deployed_fitness"`
	MonitorProbes    int     `json:"monitor_probes"`
	MonitorViolation int     `json:"monitor_violations"`
}

// Summary renders the report in the CLI's indented-block style.
func (r SafetyReport) Summary() string {
	s := r.Report.Summary()
	s += fmt.Sprintf("  monitor probes:   %d (%d violation(s))\n", r.MonitorProbes, r.MonitorViolation)
	s += fmt.Sprintf("  deployed:         %.1f tps (fitness %+.4f)\n", r.DeployedTPS, r.DeployedFitness)
	return s
}

// armSafety builds the guard of a new session and seeds its deployment
// records from the user instance's default configuration. NewSession
// calls it after DefaultPerf is measured (the first baseline); a resumed
// session restores the guard and the records from its checkpoint instead.
func (s *Session) armSafety(opts *safety.Options) error {
	if opts == nil {
		return nil
	}
	g, err := safety.NewGuard(*opts)
	if err != nil {
		return err
	}
	s.guard = g
	cfg := s.User.Config()
	s.run.Default = deployment{Cfg: cfg, Point: s.Space.Encode(cfg)}
	// Eq. 1 fitness of the default baseline is 0 by definition.
	s.run.Deployed = deployment{Cfg: cfg, Point: s.run.Default.Point, Perf: s.DefaultPerf}
	s.run.LastGood = s.run.Deployed
	return nil
}

// Safety returns the online-safety report, or nil when the loop is off.
func (s *Session) Safety() *SafetyReport {
	if s.guard == nil {
		return nil
	}
	r := &SafetyReport{
		Report:          s.guard.ReportNow(),
		DeployedTPS:     s.run.Deployed.Perf.ThroughputTPS,
		DeployedFitness: s.Fitness(s.run.Deployed.Perf),
		MonitorProbes:   len(s.run.MonitorLog),
	}
	for _, p := range s.run.MonitorLog {
		if p.Violation {
			r.MonitorViolation++
		}
	}
	return r
}

// DeployedTimeline returns the monitoring probes of the deployed
// configuration in virtual-time order.
func (s *Session) DeployedTimeline() []MonitorPoint {
	return append([]MonitorPoint(nil), s.run.MonitorLog...)
}

// OnlineDeployed returns what the online loop left deployed on the user
// instance and its last known performance. ok is false when the loop is
// off (batch sessions deploy once at the end, via DeployBest).
func (s *Session) OnlineDeployed() (cfg knob.Config, perf simdb.Perf, fitness float64, ok bool) {
	if s.guard == nil {
		return nil, simdb.Perf{}, 0, false
	}
	d := s.run.Deployed
	return d.Cfg, d.Perf, s.Fitness(d.Perf), true
}

// safetyStep runs the online loop at one wave boundary: monitor the
// deployed config on its cadence (possibly rolling back), then try to
// promote a better candidate on the deploy cadence.
func (s *Session) safetyStep() {
	r := &s.run
	rolledBack := false
	r.SinceMonitor++
	if r.SinceMonitor >= safety.MonitorEvery {
		r.SinceMonitor = 0
		rolledBack = s.monitorProbe()
	}
	r.SinceDeploy++
	if r.SinceDeploy >= safety.DeployEvery {
		if rolledBack {
			// Give the restored config a full cadence of probes before
			// promoting anything new.
			r.SinceDeploy = 0
			return
		}
		r.SinceDeploy = 0
		s.tryDeploy()
	}
}

// monitorProbe measures the deployed config on the user's serving
// instance, feeds the guard's violation/drift state machines, and rolls
// back when due. Returns whether a rollback happened.
func (s *Session) monitorProbe() bool {
	perf, _, took, err := s.User.StressTest(s.Req.Workload, s.Costs.WorkloadExecution/4)
	if err != nil {
		perf = simdb.FailedPerf()
	}
	s.charge("slo_probe", took)
	v := s.guard.ObserveMonitor(perf)
	s.run.MonitorLog = append(s.run.MonitorLog, MonitorPoint{
		Time: s.Clock.Now(), Perf: perf, BaselineTPS: v.BaselineTPS, Violation: v.Violation,
	})
	if v.SLOBreach {
		if s.Trace != nil {
			s.Trace.Event("slo_violation",
				telemetry.A("tps", perf.ThroughputTPS),
				telemetry.A("p99_ms", perf.P99LatencyMs))
			s.tel.sloViol.Add(1)
		}
		s.logf("slo violation on deployed config",
			"tps", perf.ThroughputTPS, "p99_ms", perf.P99LatencyMs)
	}
	// Rollback outranks drift handling: when both confirm on the same
	// probe, restoring a safe config comes first; the re-baselined window
	// after the rollback then judges the restored config on the new
	// workload. Operators who prefer adaptation over reverting set
	// DriftWindow below ViolationLimit so detection fires first.
	if v.RollbackDue {
		return s.rollback()
	}
	if v.DriftDetected {
		s.onDriftDetected()
	}
	return false
}

// onDriftDetected re-baselines the session after the guard's divergence
// detector confirms a workload drift: the default perf is re-measured on
// the (already switched) workload, best-so-far tracking restarts, and the
// guard forgets judgments made under the old workload.
func (s *Session) onDriftDetected() {
	s.guard.NoteDrift()
	if s.Trace != nil {
		s.Trace.Event("drift_detected")
		s.tel.drifts.Add(1)
	}
	s.logf("workload drift detected", "workload", s.Req.Workload.Name)
	if perf, _, took, err := s.Clones[0].StressTest(s.Req.Workload, s.Costs.WorkloadExecution); err == nil {
		s.charge("drift_restress", took)
		s.DefaultPerf = perf
	}
	s.run.BestFit = math.Inf(-1)
	s.run.BestSince = s.Clock.Now()
	s.publishStatus(false)
}

// rollback restores the last-known-good configuration (or the default if
// the last-known-good is what just failed) onto the user instance and
// quarantines the region around the offending point. Returns false when
// there is nothing distinct to restore.
func (s *Session) rollback() bool {
	deployed := s.run.Deployed.Cfg.Key()
	target := s.run.LastGood
	if target.Cfg == nil || target.Cfg.Key() == deployed {
		target = s.run.Default
		target.Perf = s.DefaultPerf
	}
	if target.Cfg.Key() == deployed {
		// Already on the safest config we know; quarantining or redeploying
		// it would loop. Clear the violation run and keep monitoring.
		s.guard.ResetViolations()
		return false
	}
	took, err := s.deployToUser(target.Cfg)
	if err != nil {
		s.logf("rollback deploy failed", "err", err.Error())
		return false
	}
	s.charge("rollback_deploy", took)
	s.guard.NoteRollback(s.run.Deployed.Point, 0)
	s.run.Deployed = target
	if s.Trace != nil {
		s.Trace.Event("rollback", telemetry.A("fitness", target.Fit))
		s.tel.rollbacks.Add(1)
	}
	s.logf("rolled back deployed config", "to_fitness", target.Fit)
	s.publishStatus(false)
	return true
}

// tryDeploy looks for a pool candidate better than what is deployed and
// promotes it — directly in naive online mode, through the trust region
// and the replicated canary gate with guardrails on.
func (s *Session) tryDeploy() {
	opts := s.guard.Options()
	cands := s.rankedCandidates()
	for _, c := range cands {
		if !opts.Guardrails {
			s.deployCandidate(deployment{c.Knobs, c.Point, s.Fitness(c.Perf), c.Perf}, s.guard.Baseline())
			return
		}
		point, _ := s.guard.ClampStep(s.run.Deployed.Point, c.Point)
		cfg := s.Space.Decode(point)
		key := cfg.Key()
		if key == s.run.Deployed.Cfg.Key() || s.guard.Blocked(key) || s.guard.InQuarantine(point) {
			continue
		}
		if v := s.Req.Rules.Violations(s.Space.Catalog(), cfg); len(v) > 0 {
			continue
		}
		med, ok := s.canary(cfg)
		reason := ""
		if !ok {
			reason = "canary_failed"
		} else {
			var pass bool
			baseline := s.guard.Baseline()
			pass, reason = s.guard.GateDeploy(med, baseline)
			if pass && s.Fitness(med) <= s.run.Deployed.Fit {
				pass, reason = false, "no_improvement"
			}
			if pass {
				s.deployCandidate(deployment{cfg, point, s.Fitness(med), med}, baseline)
				return
			}
		}
		s.guard.NoteBlock(key)
		if s.Trace != nil {
			s.Trace.Event("guardrail_block", telemetry.A("reason", blockReasonCodes[reason]))
			s.tel.blocks.Add(1)
		}
		s.logf("guardrail blocked deploy", "reason", reason, "tps", med.ThroughputTPS)
		// One canary per deploy slot: blocked or deployed, the slot is spent.
		return
	}
}

// rankedCandidates returns the pool samples eligible for online
// deployment, best fitness first (step order breaks ties so the ranking
// is deterministic).
func (s *Session) rankedCandidates() []Sample {
	var cands []Sample
	for _, smp := range s.Pool.All() {
		if smp.Perf.Failed || smp.Time < s.run.BestSince {
			continue
		}
		if s.Fitness(smp.Perf) <= s.run.Deployed.Fit {
			continue
		}
		cands = append(cands, smp)
	}
	sort.SliceStable(cands, func(i, j int) bool {
		fi, fj := s.Fitness(cands[i].Perf), s.Fitness(cands[j].Perf)
		if fi != fj {
			return fi > fj
		}
		return cands[i].Step < cands[j].Step
	})
	return cands
}

// canary stress-tests a candidate on up to safety.CanaryReplicas clones
// in one replicated wave and aggregates the measurements with the guard's
// outlier-robust median. Canary waves ride the same actor/chaos machinery
// as tuning waves (deadline clamp, fleet repair) but produce no pool
// samples and do not count as tuning waves.
func (s *Session) canary(cfg knob.Config) (simdb.Perf, bool) {
	k := min(safety.CanaryReplicas, len(s.actors))
	if k == 0 {
		return simdb.FailedPerf(), false
	}
	cfgs := make([]knob.Config, k)
	for i := range cfgs {
		cfgs[i] = cfg
	}
	results := runWave(s.actors[:k], cfgs, s.Req.Workload, s.Costs, s.chaos)
	waveMax := time.Duration(0)
	perfs := make([]simdb.Perf, 0, k)
	for i := range results {
		res := &results[i]
		if s.deadline > 0 && res.took > s.deadline {
			res.took = s.deadline
			res.timedOut = true
		}
		if res.took > waveMax {
			waveMax = res.took
		}
		s.run.Resil.Retries += int64(res.retries)
		s.run.Resil.BackoffTime += res.backoff
		if res.timedOut {
			s.run.Resil.Timeouts++
		}
		if res.timedOut || res.crashed || res.infra || res.execErr != nil {
			perfs = append(perfs, simdb.FailedPerf())
		} else {
			perfs = append(perfs, res.perf)
		}
	}
	s.charge("canary_wave", waveMax)
	s.guard.NoteCanary()
	if s.Trace != nil {
		s.Trace.Event("deploy_canary", telemetry.A("replicas", float64(k)))
		s.tel.canaries.Add(1)
	}
	if s.chaos != nil {
		s.repairFleet(results)
	}
	return s.guard.Aggregate(perfs)
}

// deployCandidate pushes a candidate onto the user instance and promotes
// the bookkeeping: the previous deployed config becomes last-known-good.
// d.Perf and baselineTPS are the evidence the deploy was decided on (the
// canary median and the rolling baseline the gate compared it against);
// the online_deploy event carries both.
func (s *Session) deployCandidate(d deployment, baselineTPS float64) {
	took, err := s.deployToUser(d.Cfg)
	if err != nil {
		s.logf("online deploy failed", "err", err.Error())
		return
	}
	s.charge("online_deploy", took)
	s.run.LastGood, s.run.Deployed = s.run.Deployed, d
	// Guarded deploys seed the fresh baseline window with the canary
	// median — a live measurement on the current workload. Naive deploys
	// only have the candidate's stale pool measurement, which may predate
	// a silent drift; seeding with it would fake a baseline, so the window
	// rebuilds from monitor probes instead.
	seedTPS := d.Perf.ThroughputTPS
	if !s.guard.Options().Guardrails {
		seedTPS = 0
	}
	s.guard.NoteDeploy(seedTPS)
	if s.Trace != nil {
		s.Trace.Event("online_deploy",
			telemetry.A("fitness", d.Fit),
			telemetry.A("tps", d.Perf.ThroughputTPS),
			telemetry.A("p99_ms", d.Perf.P99LatencyMs),
			telemetry.A("baseline_tps", baselineTPS))
		s.tel.deploys.Add(1)
	}
	s.logf("deployed candidate online", "fitness", d.Fit, "tps", d.Perf.ThroughputTPS)
	s.publishStatus(false)
}
