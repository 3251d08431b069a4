package experiments

import (
	"fmt"
	"io"
	"time"

	"github.com/hunter-cdb/hunter/internal/core"
)

// ablationRow is one module combination of Tables 3–5.
type ablationRow struct {
	label string
	opts  core.Options
}

// ablationRows returns the six rows the paper's ablation tables use. The
// first row (DDPG alone) is DDPG warm-started from the sample factory's
// random samples, not the paper's cold DDPG.
func ablationRows() []ablationRow {
	return []ablationRow{
		{"DDPG", core.Options{DisableGA: true, DisablePCA: true, DisableRF: true, DisableFES: true}},
		{"DDPG+GA", core.Options{DisablePCA: true, DisableRF: true, DisableFES: true}},
		{"DDPG+GA+PCA", core.Options{DisableRF: true, DisableFES: true}},
		{"DDPG+GA+RF", core.Options{DisablePCA: true, DisableFES: true}},
		{"DDPG+GA+FES", core.Options{DisablePCA: true, DisableRF: true}},
		{"HUNTER (all)", core.Options{}},
	}
}

// runAblation executes the module-combination study on one panel.
func runAblation(cfg Config, p panel, w io.Writer, seedBase int64) error {
	cfg = cfg.withDefaults()
	budget := cfg.budget(72 * time.Hour)
	combos := ablationRows()
	rows := make([][]string, len(combos))
	if err := runJobs(len(combos), func(i int) error {
		s, err := runSession(cfg, p, "HUNTER", combos[i].opts, budget, 1, seedBase+int64(i))
		if err != nil {
			return err
		}
		defer s.Close()
		best, ok := s.Best()
		rt, _ := s.Curve().RecommendationTime(s.DefaultPerf, s.Alpha, 0.98)
		if !ok {
			rows[i] = []string{combos[i].label, "-", "-", "-"}
		} else {
			rows[i] = []string{combos[i].label,
				fmt.Sprintf("%.0f", p.throughput(best.Perf)),
				fmt.Sprintf("%.1f", best.Perf.P95LatencyMs),
				hours(rt)}
		}
		return nil
	}); err != nil {
		return err
	}
	t := newTable("Modules", fmt.Sprintf("T (%s)", p.unit()), "L p95 (ms)", "Rec. time")
	for _, row := range rows {
		t.row(row...)
	}
	t.flush(w)
	return nil
}

// RunTable3 reproduces Table 3: the ablation study on MySQL with TPC-C.
func RunTable3(cfg Config, w io.Writer) error {
	return runAblation(cfg, tpccMySQL(), w, 1100)
}

// RunTable4 reproduces Table 4: the ablation study on MySQL, Sysbench RW.
func RunTable4(cfg Config, w io.Writer) error {
	return runAblation(cfg, sysbenchRWMySQL(), w, 1200)
}

// RunTable5 reproduces Table 5: the ablation study on PostgreSQL, TPC-C.
func RunTable5(cfg Config, w io.Writer) error {
	return runAblation(cfg, tpccPostgres(), w, 1300)
}

// RunTable6 reproduces Table 6: warm-starting the DRL model with GA+
// (GA + PCA + RF + FES, i.e. full HUNTER) versus hindsight experience
// replay, on MySQL and PostgreSQL with TPC-C.
func RunTable6(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	budget := cfg.budget(72 * time.Hour)
	panels := []panel{tpccMySQL(), tpccPostgres()}
	modes := []struct {
		label string
		opts  core.Options
	}{
		{"GA+", core.Options{}},
		{"HER", core.Options{HERWarmup: true}},
	}
	rows := make([][]string, len(panels)*len(modes))
	if err := runJobs(len(rows), func(k int) error {
		pi, mi := k/len(modes), k%len(modes)
		p, mode := panels[pi], modes[mi]
		s, err := runSession(cfg, p, "HUNTER", mode.opts, budget, 1, int64(1400+pi*10+mi))
		if err != nil {
			return err
		}
		defer s.Close()
		best, _ := s.Best()
		rt, _ := s.Curve().RecommendationTime(s.DefaultPerf, s.Alpha, 0.98)
		rows[k] = []string{p.Name, mode.label,
			fmt.Sprintf("%.0f %s", p.throughput(best.Perf), p.unit()),
			fmt.Sprintf("%.1f", best.Perf.P95LatencyMs),
			hours(rt)}
		return nil
	}); err != nil {
		return err
	}
	t := newTable("Database", "Warm-up", "T", "L p95 (ms)", "Rec. time")
	for _, row := range rows {
		t.row(row...)
	}
	t.flush(w)
	return nil
}
