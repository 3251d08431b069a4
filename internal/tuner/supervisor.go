package tuner

import (
	"fmt"
	"strings"
	"time"

	"github.com/hunter-cdb/hunter/internal/chaos"
	"github.com/hunter-cdb/hunter/internal/cloud"
	"github.com/hunter-cdb/hunter/internal/simdb"
	"github.com/hunter-cdb/hunter/internal/telemetry"
)

// This file is the wave supervisor: the self-healing half of the chaos
// design. The chaos engine (internal/chaos) decides which faults strike;
// the supervisor decides how the session survives them — per-actor
// virtual-time deadlines, bounded retry with exponential backoff for
// transient control-plane faults, replacement clones for crashed
// instances, quarantine for slots that keep failing, and graceful wave
// degradation: a wave that loses actors completes with the surviving
// samples and is marked partial instead of erroring the session. Only
// total fleet loss surfaces as ErrFleetLost. With no chaos plan armed
// every path in this file is dead code and the session is byte-identical
// to the fault-free build.

// ResilienceStats is the supervisor's running tally. It is part of the
// session's durable run, so a resumed run reports the whole session.
type ResilienceStats struct {
	Retries      int64         // transient faults retried (deploy + provisioning)
	BackoffTime  time.Duration // virtual time spent in retry backoff
	Timeouts     int64         // actors abandoned at the wave deadline
	SamplesLost  int64         // configurations that produced no sample
	Replacements int64         // replacement clones provisioned
	Quarantined  int64         // actor slots struck out and removed
	PartialWaves int64         // waves that completed degraded
}

// ResilienceReport summarizes a session's fault history: what the chaos
// plan injected and what the supervisor did about it. Nil when no chaos
// plan was armed.
type ResilienceReport struct {
	Profile string
	Seed    int64 // chaos plan seed (the -chaos-seed value)

	Injected chaos.Counts

	ResilienceStats
	// FleetSize is the number of clones still in service at report time.
	FleetSize int
}

// Resilience returns the session's fault summary, or nil when no chaos
// plan is armed.
func (s *Session) Resilience() *ResilienceReport {
	if s.chaos == nil {
		return nil
	}
	plan := s.Req.Chaos
	r := &ResilienceReport{
		Profile:         s.chaos.Profile().Name,
		Injected:        s.chaos.Counts(),
		ResilienceStats: s.run.Resil,
		FleetSize:       len(s.Clones),
	}
	if plan != nil {
		r.Seed = plan.Seed
	}
	return r
}

// Summary renders the report as a multi-line fault summary block. The
// output is a pure function of the report (no wall-clock anywhere), so it
// is byte-identical across worker counts and resumes.
func (r *ResilienceReport) Summary() string {
	if r == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "chaos profile %q (seed %d): %d fault(s) injected\n",
		r.Profile, r.Seed, r.Injected.Total())
	fmt.Fprintf(&b, "  injected: boot-failures %d, transients %d, crashes %d, slow-io %d, hangs %d\n",
		r.Injected.BootFailures, r.Injected.Transients, r.Injected.Crashes,
		r.Injected.SlowIO, r.Injected.Hangs)
	fmt.Fprintf(&b, "  healed:   retries %d (backoff %s), timeouts %d, replacements %d, quarantined %d\n",
		r.Retries, r.BackoffTime, r.Timeouts, r.Replacements, r.Quarantined)
	fmt.Fprintf(&b, "  degraded: partial waves %d, samples lost %d, %d clone(s) in service\n",
		r.PartialWaves, r.SamplesLost, r.FleetSize)
	return b.String()
}

// nominalStep is the fault-free virtual cost of one actor step, restart
// included — the base the per-actor deadline is a multiple of.
func nominalStep(c StepCosts) time.Duration {
	return c.KnobsDeployment + cloud.RestartTime + c.KnobsRecommendation +
		c.WorkloadExecution + c.MetricsCollection
}

// armChaos installs the fault plan on a new session: the injector's seed
// is forked from the session RNG and mixed with the plan seed, so varying
// -chaos-seed re-rolls the faults without re-seeding the tuning
// trajectory. Called before any instance is provisioned.
func (s *Session) armChaos(plan *chaos.Plan) {
	if plan.Enabled() {
		s.setChaos(chaos.NewEngine(s.RNG.Int63()^plan.Seed, plan.Profile))
	}
}

// setChaos installs a fault injector on the session and its control plane
// and derives the per-actor wave deadline from it.
func (s *Session) setChaos(e *chaos.Engine) {
	s.chaos = e
	s.Provider.SetChaos(e)
	s.deadline = time.Duration(e.DeadlineFactor() * float64(nominalStep(s.Costs)))
}

// createWithRetry provisions an instance, absorbing injected boot
// failures and transient faults with bounded backoff (charged to the
// virtual clock). Fault-free it is exactly one CreateInstance call.
func (s *Session) createWithRetry(t cloud.InstanceType, d simdb.Dialect) (*cloud.Instance, error) {
	return s.provisionWithRetry("create", func() (*cloud.Instance, error) {
		return s.Provider.CreateInstance(t, d)
	})
}

// cloneWithRetry clones src with the same bounded-retry policy.
func (s *Session) cloneWithRetry(src *cloud.Instance) (*cloud.Instance, error) {
	return s.provisionWithRetry("clone", func() (*cloud.Instance, error) {
		return s.Provider.Clone(src)
	})
}

func (s *Session) provisionWithRetry(what string, provision func() (*cloud.Instance, error)) (*cloud.Instance, error) {
	for attempt := 0; ; attempt++ {
		inst, err := provision()
		if err == nil {
			return inst, nil
		}
		if !cloud.IsTransient(err) && !cloud.IsBootFailure(err) {
			return nil, err
		}
		if attempt >= s.chaos.MaxRetries() {
			return nil, err
		}
		b := s.chaos.Backoff(attempt)
		s.charge("provision_backoff", b)
		s.run.Resil.Retries++
		s.run.Resil.BackoffTime += b
		if s.tel != nil {
			s.tel.backoffH.Observe(b)
		}
		s.logf("provisioning fault, retrying", "op", what, "attempt", attempt+1, "err", err.Error())
	}
}

// releaseFleet returns every provisioned instance to the provider. It is
// the cleanup half of Close, and what a failed NewSession must call so a
// partial fleet is not leaked onto the provider.
func (s *Session) releaseFleet() {
	for _, c := range s.Clones {
		s.Provider.Release(c)
	}
	s.Clones = nil
	s.actors = nil
	if s.User != nil {
		s.Provider.Release(s.User)
		s.User = nil
	}
}

// repairFleet runs after a degraded wave has been fully accounted:
// crashed and hung actors get replacement clones (one parallel clone-time
// charge per repair pass), and slots that have struck out are quarantined
// — the fleet shrinks gracefully and the GA batch size adapts. Invariants:
// s.actors[i] owns s.Clones[i] before and after.
func (s *Session) repairFleet(results []actorResult) {
	replaced := false
	keepActors := s.actors[:0]
	keepClones := s.Clones[:0]
	for k, a := range s.actors {
		faulted := false
		dead := false
		if k < len(results) {
			res := results[k]
			faulted = res.crashed || res.infra || res.timedOut
			dead = res.crashed || res.timedOut
		}
		if faulted {
			a.strikes++
		}
		if a.strikes >= s.chaos.QuarantineAfter() {
			s.run.Resil.Quarantined++
			s.Provider.Release(a.Clone)
			if s.Trace != nil {
				s.Trace.Event("actor_quarantined", telemetry.A("actor", float64(a.ID)))
			}
			s.logf("actor quarantined", "actor", a.ID, "strikes", a.strikes, "fleet", len(keepClones))
			continue
		}
		if dead {
			// The clone is gone (crashed engine or abandoned hang):
			// provision a replacement from the user's backup.
			s.Provider.Release(a.Clone)
			c, err := s.cloneWithRetry(s.User)
			if err != nil {
				// No replacement to be had: the slot is out of service.
				s.run.Resil.Quarantined++
				if s.Trace != nil {
					s.Trace.Event("actor_quarantined", telemetry.A("actor", float64(a.ID)))
				}
				s.logf("actor lost, replacement failed", "actor", a.ID, "err", err.Error())
				continue
			}
			a.Clone = c
			if s.warmStateDeltas() {
				applyWarmDeltas(c)
			}
			s.run.Resil.Replacements++
			replaced = true
			if s.Trace != nil {
				s.Trace.Event("clone_replaced", telemetry.A("actor", float64(a.ID)))
			}
			s.logf("clone replaced", "actor", a.ID, "clone", c.ID)
		}
		keepActors = append(keepActors, a)
		keepClones = append(keepClones, a.Clone)
	}
	s.actors = keepActors
	s.Clones = keepClones
	if replaced {
		// Replacements are provisioned in parallel: one clone-time charge.
		s.charge("replace_clone", cloud.CloneTime)
	}
}
