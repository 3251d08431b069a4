// Package fleet is the multi-tenant tuning control plane: a round-based
// session scheduler that runs thousands of tenant tuning sessions with
// per-tenant virtual-time budgets and personalized SLO targets, sharing
// trained models across tenants through one core.ReuseRegistry keyed by
// workload signature.
//
// Determinism is the package's load-bearing property, inherited from the
// rest of the repository: tenants are declared in a fixed order, scheduled
// in rounds of Policy.MaxActive, and every cross-tenant side effect —
// model-store commits, budget-pool refunds, telemetry rollups, report
// aggregation — happens at round barriers in declaration order. Within a
// round the shared store is read-only. The result: the fleet report is
// byte-identical at any worker count, and a fleet killed at a round
// barrier and resumed from its checkpoint reproduces the uninterrupted
// run byte for byte (TestDeterminismAcrossWorkers and
// TestCheckpointKillResume enforce both).
package fleet

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"time"

	"github.com/hunter-cdb/hunter/internal/core"
	"github.com/hunter-cdb/hunter/internal/metrics"
	"github.com/hunter-cdb/hunter/internal/parallel"
	"github.com/hunter-cdb/hunter/internal/telemetry"
	"github.com/hunter-cdb/hunter/internal/tuner"
)

// Typed admission-control errors. They are recorded on tenant results (and
// matched with errors.Is by callers), not returned from Run: one tenant's
// rejection must not abort the fleet.
var (
	// ErrRejected reports that admission control turned a tenant away at
	// submission time because the queue was full (Policy.QueueDepth).
	ErrRejected = errors.New("fleet: tenant rejected: admission queue full")
	// ErrEvicted reports that a queued tenant was dropped at scheduling
	// time because the fleet's remaining virtual-time pool could not cover
	// its budget reservation (Policy.TotalVirtualBudget).
	ErrEvicted = errors.New("fleet: tenant evicted: fleet virtual-time budget exhausted")
	// ErrStopRequested reports that the fleet checkpointed and stopped at
	// the round requested by Config.StopAfterRounds — the kill-and-resume
	// test hook, mirroring the session-level contract.
	ErrStopRequested = errors.New("fleet: stopped at requested round after checkpoint")
)

// Tenant terminal statuses, as they appear in reports and checkpoints.
const (
	StatusDone     = "done"
	StatusFailed   = "failed"
	StatusRejected = "rejected"
	StatusEvicted  = "evicted"
)

// Policy is the fleet's admission-control and budget policy.
type Policy struct {
	// MaxActive is the number of tenant sessions run concurrently per
	// scheduling round (default 32). It bounds memory, not parallelism:
	// internal/parallel decides how many actually run at once.
	MaxActive int
	// QueueDepth caps how many tenants may be admitted in total; beyond
	// it, tenants are rejected at submission (ErrRejected). Zero admits
	// everyone.
	QueueDepth int
	// MaxTenantBudget clamps each tenant's requested virtual budget at
	// admission. Zero leaves requests unclamped.
	MaxTenantBudget time.Duration
	// TotalVirtualBudget is the fleet-wide virtual-time pool. Each tenant
	// reserves its (clamped) budget at scheduling time and refunds the
	// unused part at the round barrier; a tenant whose reservation the
	// pool cannot cover is evicted (ErrEvicted). Zero means unlimited.
	TotalVirtualBudget time.Duration
}

func (p Policy) withDefaults() Policy {
	if p.MaxActive <= 0 {
		p.MaxActive = 32
	}
	return p
}

// Config configures a fleet run.
type Config struct {
	// Tenants are the tenant specs in declaration (= scheduling) order.
	Tenants []TenantSpec
	// Reuse enables the shared model registry.
	Reuse  bool
	Policy Policy
	// Seed is the fleet seed, recorded in the report and the checkpoint
	// fingerprint (tenant seeds live in the specs).
	Seed int64
	// CheckpointDir enables fleet snapshots at round barriers (empty
	// disables them). Each snapshot is written whole.
	CheckpointDir string
	// CheckpointEvery is the number of rounds between snapshots (default 1).
	CheckpointEvery int
	// StopAfterRounds makes the fleet checkpoint and stop (ErrStopRequested)
	// once that many rounds have run — the kill-and-resume hook.
	StopAfterRounds int
	// Recorder receives fleet-wide telemetry rollups (the shared model
	// count, admission counters, tenant virtual-time histogram). Nil
	// disables them at zero cost; rollups are passive and never change
	// results.
	Recorder *telemetry.Recorder
	// Status receives every tenant session's live status (the obsv
	// registry in the daemon). Nil disables publishing.
	Status tuner.StatusSink
	// Logger receives fleet progress events. Nil disables logging.
	Logger *slog.Logger
}

// Warm-start economics: a cold tenant's sample factory aims for a small
// pool (the 16-knob fleet space needs far fewer samples than the paper's
// 140 over 65 knobs); a warm-started tenant shrinks it further — the
// borrowed model replaces most of the exploration the pool would buy.
const (
	coldSampleTarget = 20
	warmSampleTarget = 8
)

// Fleet is one multi-tenant tuning run. Construct with New, drive with
// Run, read results with Report.
type Fleet struct {
	cfg      Config
	store    *core.ReuseRegistry
	admitted []TenantSpec
	// results holds each tenant's terminal record at its ID (nil until
	// the tenant is rejected, evicted or has run).
	results []*TenantResult
	run     Progress
	trace   *telemetry.SessionTrace
}

// Progress is the fleet's durable run state, kept in one struct so a
// checkpoint encodes it whole and a resume assigns it back.
type Progress struct {
	Rounds int // completed scheduling rounds
	Next   int // index into the admitted tenants of the next one to schedule
	// Pool is the remaining fleet virtual-time pool; only meaningful when
	// Policy.TotalVirtualBudget > 0.
	Pool        time.Duration
	ReuseProbes int
	ReuseHits   int
	ReuseStores int
	Done        int // tenants that finished so far
	Failed      int // tenants that failed so far
}

// New validates the config and performs admission: tenants beyond the
// queue depth are rejected immediately, in declaration order.
func New(cfg Config) (*Fleet, error) {
	if len(cfg.Tenants) == 0 {
		return nil, fmt.Errorf("fleet: config needs at least one tenant")
	}
	cfg.Policy = cfg.Policy.withDefaults()
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = 1
	}
	for i, t := range cfg.Tenants {
		if t.ID != i {
			return nil, fmt.Errorf("fleet: tenant %d has ID %d; IDs must be dense and in declaration order", i, t.ID)
		}
		if _, err := newProfile(t.Profile); err != nil {
			return nil, err
		}
	}
	f := &Fleet{
		cfg:     cfg,
		store:   core.NewReuseRegistry(),
		results: make([]*TenantResult, len(cfg.Tenants)),
		run:     Progress{Pool: cfg.Policy.TotalVirtualBudget},
	}
	f.admitted = cfg.Tenants
	if q := cfg.Policy.QueueDepth; q > 0 && len(cfg.Tenants) > q {
		f.admitted = cfg.Tenants[:q]
		for _, t := range cfg.Tenants[q:] {
			f.results[t.ID] = &TenantResult{
				ID:        t.ID,
				Name:      t.Name,
				Signature: t.Signature(),
				Seed:      t.Seed,
				Status:    StatusRejected,
				Err:       ErrRejected.Error(),
			}
		}
	}
	if cfg.Recorder != nil {
		f.trace = cfg.Recorder.Session("fleet", nil)
		cfg.Recorder.Counter("fleet.tenants_admitted").Add(int64(len(f.admitted)))
		cfg.Recorder.Counter("fleet.tenants_rejected").Add(int64(len(cfg.Tenants) - len(f.admitted)))
	}
	return f, nil
}

// Store exposes the shared model registry (diagnostics and tests).
func (f *Fleet) Store() *core.ReuseRegistry { return f.store }

// Rounds returns the number of completed scheduling rounds.
func (f *Fleet) Rounds() int { return f.run.Rounds }

// grant is one scheduled tenant with its admitted budget reservation.
type grant struct {
	spec    TenantSpec
	granted time.Duration
}

// Run drives the fleet to completion (or to the StopAfterRounds hook,
// returning ErrStopRequested after writing a checkpoint). Tenant-level
// failures are recorded on results, not returned.
func (f *Fleet) Run(ctx context.Context) error {
	r := &f.run
	for r.Next < len(f.admitted) {
		if err := ctx.Err(); err != nil {
			return err
		}
		// Schedule the next round: examine up to MaxActive tenants in
		// declaration order, reserving pool budget for each. Tenants the
		// pool cannot cover are evicted and do not run.
		var round []grant
		for len(round) < f.cfg.Policy.MaxActive && r.Next < len(f.admitted) {
			spec := f.admitted[r.Next]
			r.Next++
			granted := spec.Budget
			if m := f.cfg.Policy.MaxTenantBudget; m > 0 && granted > m {
				granted = m
			}
			if f.cfg.Policy.TotalVirtualBudget > 0 && r.Pool < granted {
				f.results[spec.ID] = &TenantResult{
					ID:        spec.ID,
					Name:      spec.Name,
					Signature: spec.Signature(),
					Seed:      spec.Seed,
					Status:    StatusEvicted,
					Round:     r.Rounds,
					Budget:    granted,
					Err:       ErrEvicted.Error(),
				}
				if f.cfg.Recorder != nil {
					f.cfg.Recorder.Counter("fleet.tenants_evicted").Add(1)
				}
				f.logf("tenant evicted", "tenant", spec.Name, "granted", granted, "pool", r.Pool)
				continue
			}
			if f.cfg.Policy.TotalVirtualBudget > 0 {
				r.Pool -= granted
			}
			round = append(round, grant{spec: spec, granted: granted})
		}

		// Fan the round out. Each outcome lands at its declaration index;
		// nothing shared is written until the barrier.
		outcomes := make([]tenantOutcome, len(round))
		parallel.For(len(round), 1, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				outcomes[i] = f.runTenant(ctx, round[i])
			}
		})

		// Barrier: fold outcomes in declaration order.
		for i := range outcomes {
			f.fold(&outcomes[i], round[i])
		}
		r.Rounds++
		f.rollup(outcomes)

		stop := f.cfg.StopAfterRounds > 0 && r.Rounds >= f.cfg.StopAfterRounds && r.Next < len(f.admitted)
		if f.cfg.CheckpointDir != "" && (stop || r.Rounds%f.cfg.CheckpointEvery == 0 || r.Next >= len(f.admitted)) {
			if err := f.writeCheckpoint(); err != nil {
				return err
			}
		}
		if stop {
			f.logf("fleet stopped at requested round", "round", r.Rounds)
			return ErrStopRequested
		}
	}
	return nil
}

// tenantOutcome is what one session run brings back to the barrier.
type tenantOutcome struct {
	res    TenantResult
	model  *core.Model // trained model to commit, nil when there is none
	probed bool
	hit    bool
}

// runTenant runs one tenant's tuning session to completion. It reads the
// shared registry (frozen during the round) and writes nothing shared.
func (f *Fleet) runTenant(ctx context.Context, g grant) tenantOutcome {
	spec := g.spec
	out := tenantOutcome{res: TenantResult{
		ID:        spec.ID,
		Name:      spec.Name,
		Signature: spec.Signature(),
		Seed:      spec.Seed,
		Round:     f.run.Rounds,
		Budget:    g.granted,
		Target:    spec.Target,
	}}
	fail := func(err error) tenantOutcome {
		out.res.Status = StatusFailed
		out.res.Err = err.Error()
		return out
	}

	prof, err := newProfile(spec.Profile)
	if err != nil {
		return fail(err)
	}
	knobs := fleetKnobs(spec.Dialect)
	s, err := tuner.NewSessionContext(ctx, tuner.Request{
		Dialect:       spec.Dialect,
		Workload:      prof,
		KnobNames:     knobs,
		Budget:        g.granted,
		Clones:        spec.Clones,
		Seed:          spec.Seed,
		StopAtFitness: spec.Target,
		Status:        f.cfg.Status,
	})
	if err != nil {
		return fail(err)
	}
	defer s.Close()

	opts := core.Options{
		DisableRF:    true,
		DisablePCA:   true,
		SampleTarget: coldSampleTarget,
	}
	var donorName string
	if f.cfg.Reuse {
		// With PCA disabled the session state is the full normalized metric
		// vector, so the state dimension is a constant — which is exactly
		// what makes cross-tenant snapshots compatible at all. The session
		// probes the same frozen registry with the same key, so it restores
		// the donor found here, if it restores one at all.
		out.probed = true
		if donor, ok := f.store.Match(spec.Signature(), knobs, metrics.Count); ok {
			donorName = donor.Tag + "@" + donor.Signature
			opts.SampleTarget = warmSampleTarget
		}
		opts.Registry, opts.ReuseTag = f.store, spec.Signature()
	}
	h := core.New(opts)
	if err := h.Tune(s); err != nil {
		return fail(err)
	}
	// A hit is a donor the session loaded. A tenant that meets its target
	// before the Recommender runs, or whose donor does not restore, ran
	// cold even though the probe found a donor.
	if h.Reused() {
		out.hit = true
		out.res.Reused, out.res.ReuseFrom = true, donorName
	}

	out.res.Elapsed = s.Elapsed()
	out.res.Steps = s.Steps()
	out.res.Waves = s.WaveCount()
	out.res.TargetHit = s.TargetReached()
	out.res.DefaultTPS = s.DefaultPerf.ThroughputTPS
	best, ok := s.Best()
	if !ok {
		return fail(fmt.Errorf("fleet: tenant %s produced no samples", spec.Name))
	}
	out.res.Fitness = s.Fitness(best.Perf)
	out.res.BestTPS = best.Perf.ThroughputTPS
	out.res.BestKnobs = best.Knobs
	out.res.Status = StatusDone
	if m, ok := h.Model(); ok {
		m.Tag = spec.Name
		out.model = &m
	}
	return out
}

// fold merges one outcome into fleet state at the round barrier, in
// declaration order: pool refund, reuse accounting, the model commit,
// result registration.
func (f *Fleet) fold(o *tenantOutcome, g grant) {
	r := &f.run
	if f.cfg.Policy.TotalVirtualBudget > 0 {
		// Refund the unused reservation. A session's last wave may carry
		// the clock slightly past its budget, so the refund can be a small
		// negative correction; the pool tracks actual consumption exactly.
		r.Pool += g.granted - o.res.Elapsed
	}
	if o.probed {
		r.ReuseProbes++
		if o.hit {
			r.ReuseHits++
		}
	}
	if o.model != nil && f.store.Commit(*o.model) {
		r.ReuseStores++
	}
	res := o.res
	f.results[res.ID] = &res
}

// rollup publishes the round's telemetry: admission counters, the tenant
// virtual-time histogram, the shared model count, and a round event.
func (f *Fleet) rollup(outcomes []tenantOutcome) {
	rec := f.cfg.Recorder
	done, failed := 0, 0
	for i := range outcomes {
		switch outcomes[i].res.Status {
		case StatusDone:
			done++
		case StatusFailed:
			failed++
		}
	}
	r := &f.run
	r.Done += done
	r.Failed += failed
	f.logf("round complete",
		"round", r.Rounds, "done", r.Done, "failed", r.Failed,
		"models", f.store.Len(), "reuse_hits", r.ReuseHits)
	if rec == nil {
		return
	}
	rec.Counter("fleet.rounds").Add(1)
	rec.Counter("fleet.tenants_done").Add(int64(done))
	rec.Counter("fleet.tenants_failed").Add(int64(failed))
	hist := rec.Histogram("fleet.tenant_virtual_seconds")
	for i := range outcomes {
		if st := outcomes[i].res.Status; st == StatusDone || st == StatusFailed {
			hist.Observe(outcomes[i].res.Elapsed)
		}
	}
	if f.cfg.Reuse {
		rec.Gauge("fleet.reuse_probes").Set(float64(r.ReuseProbes))
		rec.Gauge("fleet.reuse_hits").Set(float64(r.ReuseHits))
		rec.Gauge("fleet.reuse_stores").Set(float64(r.ReuseStores))
		rec.Gauge("fleet.store_models").Set(float64(f.store.Len()))
	}
	if f.trace != nil {
		f.trace.Event("round_complete",
			telemetry.A("round", float64(r.Rounds)),
			telemetry.A("done", float64(done)),
			telemetry.A("models", float64(f.store.Len())))
	}
}

func (f *Fleet) logf(msg string, kv ...any) {
	if f.cfg.Logger != nil {
		f.cfg.Logger.Info(msg, kv...)
	}
}
