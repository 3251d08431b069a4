package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"time"

	"github.com/hunter-cdb/hunter/internal/cloud"
	"github.com/hunter-cdb/hunter/internal/core"
	"github.com/hunter-cdb/hunter/internal/fleet"
	"github.com/hunter-cdb/hunter/internal/knob"
	"github.com/hunter-cdb/hunter/internal/parallel"
	"github.com/hunter-cdb/hunter/internal/safety"
	"github.com/hunter-cdb/hunter/internal/sim"
	"github.com/hunter-cdb/hunter/internal/simdb"
	"github.com/hunter-cdb/hunter/internal/tuner"
	"github.com/hunter-cdb/hunter/internal/tuners/gatuner"
	"github.com/hunter-cdb/hunter/internal/workload"
)

// Every session runs two clones: on two CPUs that is one concurrent
// stress-test actor per CPU.
const clonesPerSession = 2

// workloadDef is one set of inputs the benchmark drives through the
// tuning stack. Its inputs are a pure function of the seed; the program
// receives only those inputs.
type workloadDef struct {
	name string
	why  string
	// heldOut is a second seed for re-checking a later claim on inputs
	// that were not used while the claim was being made.
	heldOut int64
	// params are recorded with every result.
	params []string
	// nominal is the share of a run's seconds one session is given: a run
	// tunes seconds/nominal sessions. It is a fixed budget, not a
	// measurement, so the sessions a run tunes never depend on the host.
	// The values are about one session's wall time on a busy two-vCPU
	// cloud host, where sessions take two to three times as long as on an
	// idle one, so that a run of 20 seconds stays under 45 seconds there.
	nominal time.Duration
	// setupReps is how many set-up samples a run times; setup_s is their
	// median. Each sample is the mean of setupBatch back-to-back fresh
	// set-ups, for set-ups too short to time one at a time.
	setupReps, setupBatch int
	// prepare builds the inputs from the seed and sets the program up, up
	// to the first stress wave. With a tracer it attaches the program's
	// observation points and spans its own calls.
	prepare func(seed int64, tr *tracer) (instance, error)
}

// instance is a prepared workload, ready to tune.
type instance interface {
	// tune calls the program's tuning entry point: the timed part.
	tune(tr *tracer) error
	// finish deploys, re-measures and checks the outputs; untimed.
	finish() (*outcome, error)
	// replay feeds the run's inputs back through the modules' public
	// functions to time calls the program made internally; rec is the
	// program's own telemetry trace of the run.
	replay(lr *layerReport, rec []recSpan) error
	// close releases whatever prepare provisioned.
	close()
}

// outcome is what one tuning run produced.
type outcome struct {
	Steps     int      `json:"steps"`
	Waves     int      `json:"waves"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Checks    []string `json:"checks,omitempty"` // failed output checks
	Det       det      `json:"det"`
	// Safety is the guarded session's report (nil elsewhere).
	Safety *tuner.SafetyReport `json:"safety,omitempty"`
	// ReuseHitRate is the fleet report's (fleet only).
	ReuseHitRate float64 `json:"reuse_hit_rate,omitempty"`
}

// det holds the results that must be identical in every run of a
// workload at one seed, traced or not.
type det struct {
	Steps             int     `json:"steps"`
	Waves             int     `json:"waves"`
	Config            string  `json:"config"`
	RemeasuredFitness float64 `json:"remeasured_fitness"`
	RecTimeVH         float64 `json:"rec_time_vh"`
	Report            string  `json:"report,omitempty"`
}

var workloads = []*workloadDef{
	{
		name:    "ga-production",
		why:     "GA alone on the full production trace: stress-test bound, simdb Engine.Run takes nearly all CPU and no ML runs",
		heldOut: 7103,
		params:  []string{"tuner=GA (gatuner)", "trace=production 9am, 5000 txns, capture seeded", "dialect=mysql", "type=D", "budget=48h", "clones=2", "deploy=batch"},
		nominal: 5 * time.Second,
		// A production set-up takes about 45 ms.
		setupReps: 9, setupBatch: 1,
		prepare: prepareGAProduction,
	},
	{
		name:    "hunter-compressed",
		why:     "full HUNTER on the compressed production kernel with wave dedup and warm-state deltas: ML bound (DDPG, RF, PCA)",
		heldOut: 7211,
		params:  []string{"tuner=HUNTER (core)", "trace=production 9am, 5000 txns, capture seeded, compressed", "dialect=mysql", "type=F", "budget=6h", "clones=2", "eval=dedup+warm-deltas", "deploy=batch"},
		// At 6h every session is past its first space optimization and none
		// has stalled into a second one, whose extra RF fit and DDPG agent
		// would make the cost and the peak heap depend on the seed.
		nominal:   2500 * time.Millisecond,
		setupReps: 9, setupBatch: 1,
		prepare: prepareHunterCompressed,
	},
	{
		name:    "fleet-reuse",
		why:     "fleet daemon on 32 synthetic tenants in rounds of 8 with model reuse: scheduler, barriers, model store, mixed OLTP mixes",
		heldOut: 7307,
		params:  []string{"tenants=32 (SyntheticTenants, seeded)", "max_active=8", "reuse=on", "tenant_budget_max=2h", "tenant_clones=2", "fanout=GOMAXPROCS"},
		nominal: 5 * time.Second,
		// fleet.New takes tens of microseconds: time it in batches.
		setupReps: 31, setupBatch: 50,
		prepare: prepareFleet,
	},
	{
		name:    "guarded-drift",
		why:     "HUNTER online with guardrails (p99 SLO 200 ms) on TPC-C under a seeded diurnal drift stream: canaries, monitor probes, rollback",
		heldOut: 7411,
		params:  []string{"tuner=HUNTER (core) online", "workload=TPC-C", "dialect=mysql", "type=F", "budget=9h", "clones=2", "guardrails=on", "slo_p99=200ms", "drift=diurnal, period 6h, 4 events, seeded"},
		// 9h takes every session past the sample factory into DDPG.
		nominal:   4 * time.Second,
		setupReps: 15, setupBatch: 1,
		prepare: prepareGuardedDrift,
	},
}

func workloadByName(name string) (*workloadDef, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// productionTrace captures the 9:00 production window as
// workload.Production does, from the benchmark seed instead of the
// program's fixed capture seed.
func productionTrace(seed int64) *workload.Trace {
	return workload.CaptureProduction(sim.NewRNG(seed), "9am", 5000)
}

// sessionRun is one tuning session: the three session workloads.
type sessionRun struct {
	s *tuner.Session
	// req is the session request without observation points, for
	// replaying the set-up.
	req tuner.Request
	// build rebuilds the session's workload from the seed.
	build func() (*workload.Profile, error)
	// tuneSpan names the tuning call; run makes it.
	tuneSpan string
	run      func(*tuner.Session) error
	online   bool
	seed     int64
	closed   bool
}

func (r *sessionRun) tune(tr *tracer) error {
	id := tr.begin(r.tuneSpan)
	err := r.run(r.s)
	tr.end(id)
	return err
}

func (r *sessionRun) close() {
	if !r.closed {
		r.closed = true
		r.s.Close()
	}
}

// finish deploys the result the way the program's facade does (a batch
// deploy, or what the online loop left deployed), re-measures it against
// the default on fresh engines, and checks that Close releases every
// instance.
func (r *sessionRun) finish() (*outcome, error) {
	s := r.s
	out := &outcome{Steps: s.Steps(), Waves: s.WaveCount(), Attempted: 1, Safety: s.Safety()}
	var deployed knob.Config
	if r.online {
		cfg, _, _, ok := s.OnlineDeployed()
		if !ok {
			return nil, fmt.Errorf("guarded session reports no online deployment")
		}
		deployed = cfg
	} else {
		best, err := s.DeployBest()
		if err != nil {
			out.Failed = 1
			out.Checks = append(out.Checks, "deploy: "+err.Error())
			return out, nil
		}
		deployed = best.Knobs
	}
	fit, err := remeasure(s.Req.Dialect, s.Req.Type, s.Req.Workload, deployed, s.Alpha, s.Req.Rules.Tail99, r.seed)
	if err != nil {
		out.Failed = 1
		out.Checks = append(out.Checks, err.Error())
	}
	out.Det = det{
		Steps:             out.Steps,
		Waves:             out.Waves,
		Config:            digest(deployed.Key()),
		RemeasuredFitness: fit,
		RecTimeVH:         recTimeHours(s.Curve(), s.DefaultPerf, s.Alpha),
	}
	r.close()
	if n := s.Provider.ActiveCount(); n != 0 {
		out.Failed = 1
		out.Checks = append(out.Checks, fmt.Sprintf("%d instance(s) still active after Close", n))
	}
	return out, nil
}

// newSessionRun sets a session up from a built workload.
func newSessionRun(tr *tracer, build func() (*workload.Profile, error), buildSpan string, req tuner.Request) (*sessionRun, error) {
	id := tr.begin(buildSpan)
	p, err := build()
	tr.end(id)
	if err != nil {
		return nil, err
	}
	req.Workload = p
	r := &sessionRun{req: req, build: build, seed: req.Seed}
	req.Recorder, req.Status = tr.recorder(), tr.sink()
	id = tr.begin("tuner.NewSession")
	r.s, err = tuner.NewSession(req)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	return r, nil
}

func prepareGAProduction(seed int64, tr *tracer) (instance, error) {
	it, err := cloud.TypeByName("D")
	if err != nil {
		return nil, err
	}
	build := func() (*workload.Profile, error) {
		return workload.ProductionProfile(productionTrace(seed)), nil
	}
	r, err := newSessionRun(tr, build, "workload.Production", tuner.Request{
		Dialect: simdb.MySQL,
		Type:    it,
		Budget:  48 * time.Hour,
		Clones:  clonesPerSession,
		Seed:    seed,
	})
	if err != nil {
		return nil, err
	}
	r.tuneSpan, r.run = "gatuner.Tune", gatuner.New().Tune
	return r, nil
}

func prepareHunterCompressed(seed int64, tr *tracer) (instance, error) {
	it, err := cloud.TypeByName("F")
	if err != nil {
		return nil, err
	}
	build := func() (*workload.Profile, error) {
		return workload.CompressTrace(productionTrace(seed), workload.CompressOptions{}).Profile, nil
	}
	r, err := newSessionRun(tr, build, "workload.CompressProduction", tuner.Request{
		Dialect: simdb.MySQL,
		Type:    it,
		Budget:  6 * time.Hour,
		Clones:  clonesPerSession,
		Seed:    seed,
		Eval:    &tuner.EvalOptions{DedupWaves: true, WarmStateDeltas: true},
	})
	if err != nil {
		return nil, err
	}
	r.tuneSpan, r.run = "core.Tune", core.New(core.Options{}).Tune
	return r, nil
}

// driftStream is the guarded workload's drift stream spec.
func driftStream(seed int64) workload.StreamSpec {
	return workload.StreamSpec{Kind: workload.StreamDiurnal, Period: 6 * time.Hour, Events: 4, Seed: seed}
}

func prepareGuardedDrift(seed int64, tr *tracer) (instance, error) {
	it, err := cloud.TypeByName("F")
	if err != nil {
		return nil, err
	}
	var events []workload.DriftEvent
	build := func() (*workload.Profile, error) {
		base := workload.TPCC()
		var err error
		events, err = workload.GenerateStream(base, driftStream(seed))
		return base, err
	}
	r, err := newSessionRun(tr, build, "workload.GenerateStream", tuner.Request{
		Dialect: simdb.MySQL,
		Type:    it,
		Budget:  9 * time.Hour,
		Clones:  clonesPerSession,
		Seed:    seed,
		Safety:  &safety.Options{Guardrails: true, SLOP99Ms: 200},
	})
	if err != nil {
		return nil, err
	}
	id := tr.begin("tuner.ScheduleDrift")
	for _, ev := range events {
		if err := r.s.ScheduleDrift(ev.At, ev.Profile); err != nil {
			r.s.Close()
			return nil, err
		}
	}
	tr.end(id)
	r.tuneSpan, r.run, r.online = "core.Tune", core.New(core.Options{}).Tune, true
	return r, nil
}

// fleetRun is the fleet daemon over synthetic tenants.
type fleetRun struct {
	f       *fleet.Fleet
	tenants []fleet.TenantSpec
	rep     *fleet.Report
	seed    int64
}

const (
	fleetTenants   = 32
	fleetMaxActive = 8
)

func prepareFleet(seed int64, tr *tracer) (instance, error) {
	id := tr.begin("workload.SyntheticTenants")
	tenants := fleet.SyntheticTenants(fleetTenants, seed)
	tr.end(id)
	id = tr.begin("fleet.New")
	f, err := fleet.New(fleet.Config{
		Tenants: tenants,
		Reuse:   true,
		// The clamp bounds the few tenants that never reach their SLO
		// target; unclamped, their 2-6h budgets dominate the fleet's cost
		// and make it depend on the seed.
		Policy:   fleet.Policy{MaxActive: fleetMaxActive, MaxTenantBudget: 2 * time.Hour},
		Seed:     seed,
		Recorder: tr.recorder(),
		Status:   tr.sink(),
	})
	tr.end(id)
	if err != nil {
		return nil, err
	}
	return &fleetRun{f: f, tenants: tenants, seed: seed}, nil
}

func (r *fleetRun) close() {}

func (r *fleetRun) tune(tr *tracer) error {
	id := tr.begin("fleet.Run")
	err := r.f.Run(context.Background())
	tr.end(id)
	return err
}

// finish re-measures every finished tenant's best configuration; the
// tenants' sessions are internal to the fleet, so instance counts after
// Close are not observable here.
func (r *fleetRun) finish() (*outcome, error) {
	rep := r.f.Report()
	r.rep = rep
	out := &outcome{Attempted: rep.Tenants, Failed: rep.Failed + rep.Rejected + rep.Evicted, ReuseHitRate: rep.ReuseHitRate}
	var rendered bytes.Buffer
	rep.Render(&rendered)
	var done []fleet.TenantResult
	var hours float64
	out.Steps, out.Waves, done, hours = fleetTotals(rep.TenantResults)
	if len(done) == 0 {
		return nil, fmt.Errorf("no fleet tenant finished")
	}
	keys := make([]string, len(done))
	for i, t := range done {
		keys[i] = t.BestKnobs.Key()
	}
	fits := make([]float64, len(done))
	errs := make([]error, len(done))
	parallel.For(len(done), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			fits[i], errs[i] = remeasureTenant(done[i], r.seed+int64(done[i].ID))
		}
	})
	for i, err := range errs {
		if err != nil {
			out.Failed++
			out.Checks = append(out.Checks, fmt.Sprintf("tenant %s: %v", done[i].Name, err))
		}
	}
	out.Det = det{
		Steps:             out.Steps,
		Waves:             out.Waves,
		Config:            digest(strings.Join(keys, "\n")),
		RemeasuredFitness: mean(fits),
		RecTimeVH:         hours,
		Report:            digest(rendered.String()),
	}
	return out, nil
}

// fleetTotals sums the tenants' steps and waves and returns the finished
// tenants with their mean elapsed virtual hours: the fleet's
// recommendation time, since a tenant stops once it reaches its SLO
// target.
func fleetTotals(results []fleet.TenantResult) (steps, waves int, done []fleet.TenantResult, hours float64) {
	for _, t := range results {
		steps += t.Steps
		waves += t.Waves
		if t.Status == fleet.StatusDone {
			done = append(done, t)
			hours += t.Elapsed.Hours()
		}
	}
	if len(done) > 0 {
		hours /= float64(len(done))
	}
	return steps, waves, done, hours
}

// recTimeHours is the paper's recommendation time in virtual hours: when
// the best-so-far curve first reached 98% of its final fitness.
func recTimeHours(c tuner.Curve, def simdb.Perf, alpha float64) float64 {
	rt, _ := c.RecommendationTime(def, alpha, 0.98)
	return rt.Hours()
}

// tenantProfiles maps the fleet's workload family names to the profiles
// its sessions run.
var tenantProfiles = map[string]func() *workload.Profile{
	"tpcc":            workload.TPCC,
	"oltp_read_only":  workload.SysbenchRO,
	"oltp_write_only": workload.SysbenchWO,
	"oltp_read_write": workload.SysbenchRW,
}

// tenantSetting resolves the dialect and workload a tenant ran.
func tenantSetting(signature string) (simdb.Dialect, *workload.Profile, error) {
	dialect, family, ok := strings.Cut(signature, "/")
	mk, known := tenantProfiles[family]
	if !ok || !known {
		return 0, nil, fmt.Errorf("unknown tenant signature %q", signature)
	}
	if dialect == simdb.Postgres.String() {
		return simdb.Postgres, mk(), nil
	}
	return simdb.MySQL, mk(), nil
}

// remeasureTenant re-measures a tenant's best configuration on the
// instance type and rules its session ran with (the defaults).
func remeasureTenant(t fleet.TenantResult, seed int64) (float64, error) {
	d, p, err := tenantSetting(t.Signature)
	if err != nil {
		return 0, err
	}
	it, err := cloud.TypeByName("F")
	if err != nil {
		return 0, err
	}
	rules := knob.NewRules()
	return remeasure(d, it, p, t.BestKnobs, rules.EffectiveAlpha(), rules.Tail99, seed)
}

// remeasureReplicas is how many stress tests the re-measurement takes the
// median of, per configuration.
const remeasureReplicas = 5

// remeasure returns the Eq. 1 fitness of cfg against the default
// configuration, each measured on a fresh engine as the median of
// remeasureReplicas stress tests of p. The figure carries neither the
// tuner's winner's-curse bias (its best is the luckiest of noisy samples)
// nor one sample's noise. A configuration that does not boot is an error.
func remeasure(d simdb.Dialect, it cloud.InstanceType, p *workload.Profile, cfg knob.Config, alpha float64, tail99 bool, seed int64) (float64, error) {
	def, err := measureMedian(d, it, p, nil, seed^0x5eed)
	if err != nil {
		return 0, err
	}
	got, err := measureMedian(d, it, p, cfg, seed^0xdeb1)
	if err != nil {
		return 0, err
	}
	return got.FitnessTail(def, alpha, tail99), nil
}

// measureMedian boots cfg (nil: the default) on a fresh engine and returns
// the per-field median of remeasureReplicas stress tests.
func measureMedian(d simdb.Dialect, it cloud.InstanceType, p *workload.Profile, cfg knob.Config, seed int64) (simdb.Perf, error) {
	e, err := simdb.NewEngine(d, it.Resources(), seed)
	if err != nil {
		return simdb.Perf{}, err
	}
	if cfg != nil {
		if err := e.Configure(cfg); err != nil {
			return simdb.Perf{}, fmt.Errorf("deployed configuration does not boot: %w", err)
		}
	}
	var tps, avg, p95, p99 []float64
	for i := 0; i < remeasureReplicas; i++ {
		perf, _, err := e.Run(p)
		if err != nil {
			return simdb.Perf{}, err
		}
		tps = append(tps, perf.ThroughputTPS)
		avg = append(avg, perf.AvgLatencyMs)
		p95 = append(p95, perf.P95LatencyMs)
		p99 = append(p99, perf.P99LatencyMs)
	}
	return simdb.Perf{ThroughputTPS: median(tps), AvgLatencyMs: median(avg), P95LatencyMs: median(p95), P99LatencyMs: median(p99)}, nil
}

// digest is a short stable fingerprint of deterministic output.
func digest(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:8])
}
