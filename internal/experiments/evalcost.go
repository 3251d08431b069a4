package experiments

import (
	"fmt"
	"io"

	"github.com/hunter-cdb/hunter/internal/simdb"
	"github.com/hunter-cdb/hunter/internal/tuner"
	"github.com/hunter-cdb/hunter/internal/tuners/gatuner"
	"github.com/hunter-cdb/hunter/internal/workload"
)

// RunEvalCost demonstrates the evaluation-cost-collapse layer on the
// production workload: a GA tuning session (the evaluation-bound method)
// on the full captured trace versus the compressed kernel with wave dedup
// and warm-state deltas on. Both sessions spend the same virtual budget;
// what compression buys is wall-clock per step, which the bench
// scoreboard records — this experiment reports the deterministic side:
// the kernel's shape and how close the compressed session's tuning
// outcome tracks the full-trace one.
func RunEvalCost(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	k := workload.CompressProduction()
	fmt.Fprintf(w, "compressed kernel: %d trace clusters -> %d classes, %.1f%% coverage by named classes\n",
		k.Clusters, k.Kept, 100*k.Coverage)
	full := workload.Production()
	fr, fw, _, _, _ := full.Averages()
	kr, kw, _, _, _ := k.Profile.Averages()
	fmt.Fprintf(w, "mix demands: full r=%.2f w=%.2f  kernel r=%.2f w=%.2f  (measure fraction %.2f)\n\n",
		fr, fw, kr, kw, k.Profile.MeasureFraction)

	p := productionMySQL()
	budget := cfg.budget(24 * hour)
	const clones = 4
	type leg struct {
		name string
		wl   *workload.Profile
		eval *tuner.EvalOptions
	}
	legs := []leg{
		{"full trace", full, nil},
		{"compressed", k.Profile, &tuner.EvalOptions{DedupWaves: true, WarmStateDeltas: true}},
	}
	// Each recommendation is re-measured on the full trace with a fresh
	// engine: the compressed session tunes on the kernel, but what the user
	// deploys runs the real workload, so that column is the one fidelity is
	// judged on.
	deploy := func(point []float64, s *tuner.Session) (float64, error) {
		e, err := simdb.NewEngine(p.Dialect, p.Type.Resources(), cfg.Seed)
		if err != nil {
			return 0, err
		}
		if err := e.Configure(s.Space.Decode(point)); err != nil {
			return 0, err
		}
		perf, _, err := e.Run(full)
		if err != nil {
			return 0, err
		}
		return p.throughput(perf), nil
	}

	t := newTable("evaluation", "steps", "best fitness", "best "+p.unit(), "deployed "+p.unit(), "virtual time")
	for _, l := range legs {
		s, err := tuner.NewSession(tuner.Request{
			Dialect:  p.Dialect,
			Type:     p.Type,
			Workload: l.wl,
			Budget:   budget,
			Clones:   clones,
			Seed:     cfg.Seed,
			Logger:   cfg.Logger,
			Recorder: cfg.Recorder,
			Status:   cfg.Status,
			Eval:     l.eval,
		})
		if err != nil {
			return fmt.Errorf("experiments: evalcost %s: %w", l.name, err)
		}
		if err := gatuner.New().Tune(s); err != nil {
			s.Close()
			return fmt.Errorf("experiments: evalcost %s: %w", l.name, err)
		}
		best, ok := s.Best()
		fit, tput, deployed := 0.0, 0.0, 0.0
		if ok {
			fit = s.Fitness(best.Perf)
			tput = p.throughput(best.Perf)
			if deployed, err = deploy(best.Point, s); err != nil {
				s.Close()
				return fmt.Errorf("experiments: evalcost %s deploy: %w", l.name, err)
			}
		}
		t.row(l.name,
			fmt.Sprintf("%d", s.Steps()),
			fmt.Sprintf("%.3f", fit),
			fmt.Sprintf("%.0f", tput),
			fmt.Sprintf("%.0f", deployed),
			hours(s.Elapsed()))
		s.Close()
	}
	t.flush(w)
	fmt.Fprintf(w, "\nSame virtual budget and step accounting on both rows: the compressed\n")
	fmt.Fprintf(w, "kernel buys wall-clock per stress test (DESIGN.md §10). 'deployed'\n")
	fmt.Fprintf(w, "re-measures each recommendation on the full trace — the column fidelity\n")
	fmt.Fprintf(w, "is judged on, since a kernel-tuned configuration runs the real workload.\n")
	return nil
}
