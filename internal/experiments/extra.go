package experiments

import (
	"fmt"
	"io"
	"time"

	"github.com/hunter-cdb/hunter/internal/knob"
	"github.com/hunter-cdb/hunter/internal/tuner"
)

// RunAlphaSensitivity is an extension beyond the paper's figures: it tunes
// the same workload under different α preferences (Eq. 1's
// throughput/latency weight, exposed to users through Rules) and shows how
// the recommended operating point moves along the throughput/latency
// frontier — the "personalized requirements" the title promises, made
// quantitative.
func RunAlphaSensitivity(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	budget := cfg.budget(16 * time.Hour)
	p := sysbenchRWMySQL()
	alphas := []float64{0.0, 0.25, 0.5, 0.75, 1.0}
	rows := make([][]string, len(alphas))
	if err := runJobs(len(alphas), func(i int) error {
		alpha := alphas[i]
		rules := knob.NewRules().SetAlpha(alpha)
		s, err := tuner.NewSession(tuner.Request{
			Dialect:  p.Dialect,
			Type:     p.Type,
			Workload: p.Workload(),
			Rules:    rules,
			Budget:   budget,
			Clones:   2,
			Seed:     cfg.Seed + int64(2000+i),
			Logger:   cfg.Logger,
			Recorder: cfg.Recorder,
			Status:   cfg.Status,
		})
		if err != nil {
			return err
		}
		defer s.Close()
		if err := newTuner("HUNTER", hunterDefaults()).Tune(s); err != nil {
			return err
		}
		best, ok := s.Best()
		if !ok {
			rows[i] = []string{fmt.Sprintf("%.2f", alpha), "-", "-", "-"}
		} else {
			rows[i] = []string{fmt.Sprintf("%.2f", alpha),
				fmt.Sprintf("%.0f", best.Perf.ThroughputTPS),
				fmt.Sprintf("%.1f", best.Perf.P95LatencyMs),
				fmt.Sprintf("%.1f", best.Perf.P99LatencyMs)}
		}
		return nil
	}); err != nil {
		return err
	}
	t := newTable("alpha", "Best T (txn/s)", "p95 (ms)", "p99 (ms)")
	for _, row := range rows {
		t.row(row...)
	}
	fmt.Fprintln(w, "recommended operating point vs α (0 = pure latency, 1 = pure throughput)")
	t.flush(w)
	return nil
}
