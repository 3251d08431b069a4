package experiments

import (
	"errors"
	"fmt"
	"io"
	"time"

	"github.com/hunter-cdb/hunter/internal/chaos"
	"github.com/hunter-cdb/hunter/internal/core"
	"github.com/hunter-cdb/hunter/internal/tuner"
)

// RunChaos demonstrates the fault-injection and self-healing design end to
// end, in two legs:
//
// Leg 1 arms a deterministic chaos plan (the "flaky" profile, chaos seed
// 7) on a full HUNTER session. Injected boot failures, transients, crashes,
// stragglers and hangs strike mid-run; the supervisor retries, replaces and
// quarantines, and the session still completes with a recommendation. The
// printed fault summary is a pure function of (seed, chaos seed, profile) —
// byte-identical across worker counts, which TestChaosWorkerByteIdentity
// checks.
//
// Leg 2 arms the "catastrophic" profile, under which every stress test
// crashes its clone: the fleet collapses, the session surfaces
// ErrFleetLost, and the run degrades to the user instance's baseline
// configuration instead of failing outright.
func RunChaos(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	p := tpccMySQL()
	opts := core.Options{SampleTarget: cfg.scaledSampleTarget()}

	profile := chaos.Flaky()
	const chaosSeed = 7

	req := func(plan *chaos.Plan, budget time.Duration, clones int, seedOffset int64) tuner.Request {
		return tuner.Request{
			Dialect:  p.Dialect,
			Type:     p.Type,
			Workload: p.Workload(),
			Budget:   budget,
			Clones:   clones,
			Seed:     cfg.Seed + seedOffset,
			Logger:   cfg.Logger,
			Recorder: cfg.Recorder,
			Status:   cfg.Status,
			Chaos:    plan,
		}
	}

	// Leg 1: a faulty-but-survivable cloud. The session must complete and
	// deploy a recommendation despite every injected fault.
	plan := &chaos.Plan{Seed: chaosSeed, Profile: profile}
	fmt.Fprintf(w, "leg 1: HUNTER on %s under the %q fault profile (chaos seed %d)\n",
		p.Name, profile.Name, chaosSeed)
	s, err := tuner.NewSession(req(plan, cfg.budget(8*hour), 5, 4200))
	if err != nil {
		return err
	}
	if err := tuner.Done(core.New(opts).Tune(s)); err != nil {
		s.Close()
		return err
	}
	best, err := s.DeployBest()
	if err != nil {
		s.Close()
		return err
	}
	fmt.Fprintf(w, "  waves %d  steps %d  elapsed %.2f h  pool %d\n",
		s.WaveCount(), s.Steps(), s.Elapsed().Hours(), s.Pool.Len())
	fmt.Fprintf(w, "  default %.0f %s -> recommended %.0f %s  (fitness %.3f)\n",
		p.throughput(s.DefaultPerf), p.unit(), p.throughput(best.Perf), p.unit(),
		s.Fitness(best.Perf))
	fmt.Fprint(w, indent(s.Resilience().Summary()))

	survived := s.Resilience().FleetSize > 0 && s.Steps() > 0
	faulted := s.Resilience().Injected.Total() > 0
	s.Close()
	fmt.Fprintf(w, "  session completed despite faults: %v\n\n", survived && faulted)

	// Leg 2: total fleet loss. Every stress test crashes its clone, strikes
	// accumulate, every slot is quarantined, and the session reports
	// ErrFleetLost — the caller falls back to the baseline configuration.
	fmt.Fprintf(w, "leg 2: HUNTER on %s under the \"catastrophic\" profile (fleet-loss fallback)\n", p.Name)
	cat := &chaos.Plan{Seed: chaosSeed, Profile: chaos.Catastrophic()}
	sc, err := tuner.NewSession(req(cat, cfg.budget(4*hour), 3, 4300))
	if err != nil {
		return err
	}
	defer sc.Close()
	terr := core.New(opts).Tune(sc)
	lost := errors.Is(terr, tuner.ErrFleetLost)
	fmt.Fprintf(w, "  fleet lost: %v\n", lost)
	if !lost {
		return fmt.Errorf("experiments: catastrophic leg finished without losing the fleet (err=%v)", terr)
	}
	fmt.Fprintf(w, "  fallback: baseline configuration keeps serving at %.0f %s (fitness %.3f)\n",
		p.throughput(sc.DefaultPerf), p.unit(), sc.Fitness(sc.DefaultPerf))
	fmt.Fprint(w, indent(sc.Resilience().Summary()))
	fmt.Fprintf(w, "graceful degradation: PASS\n")
	return nil
}

// indent prefixes every line of s with two spaces (nested report blocks).
func indent(s string) string {
	var b []byte
	for len(s) > 0 {
		b = append(b, ' ', ' ')
		i := 0
		for i < len(s) && s[i] != '\n' {
			i++
		}
		if i < len(s) {
			i++
		}
		b = append(b, s[:i]...)
		s = s[i:]
	}
	return string(b)
}
