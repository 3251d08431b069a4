package experiments

import (
	"fmt"
	"io"

	"github.com/hunter-cdb/hunter/internal/core"
	"github.com/hunter-cdb/hunter/internal/safety"
	"github.com/hunter-cdb/hunter/internal/tuner"
	"github.com/hunter-cdb/hunter/internal/workload"
)

// RunSafety demonstrates the online safe-tuning loop under live workload
// drift, in three legs on MySQL/TPC-C with the same seed and the same
// seeded diurnal drift stream (demand swells, then collapses into an
// overnight trough — silently; the session is never told):
//
// Leg 1 tunes naively online: every improving pool candidate deploys
// straight to the serving instance, nothing blocks and nothing reverts.
// When the trough hits, measured throughput dives far below the rolling
// baseline learned during the day, and nothing bounds the run of
// consecutive guardrail violations the monitor logs.
//
// Leg 2 arms the guardrails: candidates pass a replicated canary gate
// under a trust region, and sustained violation of the rolling baseline
// triggers an automatic rollback to the last-known-good configuration.
//
// Leg 3 additionally arms drift *detection* (divergence of monitored
// throughput from the rolling baseline) with a window shorter than the
// rollback limit, so the session re-baselines and adapts to the new
// workload instead of reverting.
//
// The closing lines report the measured containment (each leg's longest
// consecutive-violation run against the rollback limit), the rollbacks and
// the drift adaptation. They are measurements, not a verdict: whether the
// naive leg overruns the limit depends on seed and scale. The guard's
// invariants are asserted by internal/tuner's TestInvariants.
func RunSafety(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	p := tpccMySQL()
	opts := core.Options{SampleTarget: cfg.scaledSampleTarget()}
	budget := cfg.budget(6 * hour)

	// One diurnal cycle across the budget: demand swells at ~1/4 budget,
	// returns to base at ~1/2, and collapses into a deep overnight trough
	// at ~3/4 (client threads drop to a tenth, throughput with them). All
	// switches are silent; the monitor sees the trough only as measured
	// throughput diverging far below the baseline learned during the day.
	stream := workload.StreamSpec{
		Kind:      workload.StreamDiurnal,
		Period:    budget,
		Events:    4,
		Amplitude: 0.9,
		Seed:      cfg.Seed,
	}

	type leg struct {
		name   string
		safety safety.Options
	}
	legs := []leg{
		{"naive online (no guardrails)", safety.Options{Guardrails: false}},
		{"guarded (canary gate + trust region + rollback)", safety.Options{Guardrails: true}},
		{"guarded + drift detection (adapt, not revert)", safety.Options{
			Guardrails: true, DriftThreshold: 0.20, DriftWindow: 1,
		}},
	}

	type outcome struct {
		report   *tuner.SafetyReport
		maxRun   int
		timeline []tuner.MonitorPoint
	}
	results := make([]outcome, len(legs))

	for i, l := range legs {
		sOpts := l.safety
		s, err := tuner.NewSession(tuner.Request{
			Dialect:  p.Dialect,
			Type:     p.Type,
			Workload: p.Workload(),
			Budget:   budget,
			Clones:   3,
			Seed:     cfg.Seed + 8600,
			Logger:   cfg.Logger,
			Recorder: cfg.Recorder,
			Status:   cfg.Status,
			Safety:   &sOpts,
		})
		if err != nil {
			return err
		}
		events, err := workload.GenerateStream(p.Workload(), stream)
		if err != nil {
			s.Close()
			return err
		}
		for _, ev := range events {
			if err := s.ScheduleDrift(ev.At, ev.Profile); err != nil {
				s.Close()
				return err
			}
		}
		if err := core.New(opts).Tune(s); err != nil {
			s.Close()
			return err
		}
		r := &results[i]
		r.report = s.Safety()
		r.timeline = s.DeployedTimeline()
		r.maxRun = maxViolationRun(r.timeline)

		fmt.Fprintf(w, "leg %d: %s\n", i+1, l.name)
		fmt.Fprintf(w, "  diurnal swell at ~%.1f h, overnight trough at ~%.1f h of %.1f h (silent switches, %d clone(s))\n",
			(budget / 4).Hours(), (budget * 3 / 4).Hours(), budget.Hours(), 3)
		fmt.Fprint(w, indent(r.report.Summary()))
		fmt.Fprintf(w, "  longest violation run: %d probe(s)\n\n", r.maxRun)
		s.Close()
	}

	naive, guarded, adaptive := results[0], results[1], results[2]
	fmt.Fprintf(w, "violation containment: naive run %d vs guarded run %d (rollback limit %d)\n",
		naive.maxRun, guarded.maxRun, safety.ViolationLimit)
	fmt.Fprintf(w, "rollbacks: naive %d, guarded %d\n", naive.report.Rollbacks, guarded.report.Rollbacks)
	fmt.Fprintf(w, "drift adaptation: %d drift(s) detected, %d rollback(s) in the adaptive leg\n",
		adaptive.report.Drifts, adaptive.report.Rollbacks)
	return nil
}

// maxViolationRun is the longest run of consecutive violating probes in a
// deployed-config monitoring timeline.
func maxViolationRun(tl []tuner.MonitorPoint) int {
	run, max := 0, 0
	for _, pt := range tl {
		if pt.Violation {
			run++
			if run > max {
				max = run
			}
		} else {
			run = 0
		}
	}
	return max
}
