package experiments

import (
	"fmt"
	"io"
	"time"

	"github.com/hunter-cdb/hunter/internal/core"
	"github.com/hunter-cdb/hunter/internal/simdb"
	"github.com/hunter-cdb/hunter/internal/tuner"
	"github.com/hunter-cdb/hunter/internal/workload"
)

// RunFigure10 reproduces Figure 10: tuning the real-world Production
// workload (captured at 9:00), then a workload drift at the 48-hour mark
// to the 21:00 capture. Every tuner keeps its learned state across the
// drift; the learning-based methods recover superior configurations much
// faster than the search-based ones (§5).
func RunFigure10(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	driftAt := cfg.budget(48 * time.Hour)
	budget := cfg.budget(96 * time.Hour)
	methods := []string{"BestConfig", "OtterTune", "CDBTune", "QTune", "ResTune", "HUNTER"}
	p := productionMySQL()

	type result struct {
		curve       tuner.Curve
		recovery    time.Duration
		hasRecovery bool
	}
	results := make([]result, len(methods))
	if err := runJobs(len(methods), func(i int) error {
		s, err := tuner.NewSession(tuner.Request{
			Dialect:  p.Dialect,
			Type:     p.Type,
			Workload: p.Workload(),
			Budget:   budget,
			Clones:   1,
			Seed:     cfg.Seed + int64(1000+i),
			Logger:   cfg.Logger,
			Recorder: cfg.Recorder,
			Status:   cfg.Status,
		})
		if err != nil {
			return err
		}
		defer s.Close()
		if err := s.ScheduleDrift(driftAt, workload.ProductionDrifted()); err != nil {
			return err
		}
		if err := newTuner(methods[i], core.Options{}).Tune(s); err != nil {
			return err
		}
		r := &results[i]
		r.curve = s.Curve()
		// Recovery time: from the drift to the first post-drift point
		// within 95% of the method's final post-drift fitness.
		var post tuner.Curve
		for _, cp := range r.curve {
			if cp.Time >= driftAt {
				post = append(post, cp)
			}
		}
		if rt, _ := post.RecommendationTime(s.DefaultPerf, s.Alpha, 0.95); rt > 0 {
			r.recovery, r.hasRecovery = rt-driftAt, true
		}
		return nil
	}); err != nil {
		return err
	}
	curves := map[string]tuner.Curve{}
	recovery := map[string]time.Duration{}
	for i, m := range methods {
		curves[m] = results[i].curve
		if results[i].hasRecovery {
			recovery[m] = results[i].recovery
		}
	}

	fmt.Fprintf(w, "(a) best throughput (%s) before the drift\n", p.unit())
	preMarks := timeMarks(driftAt, 5)
	ta := newTable(append([]string{"Time"}, methods...)...)
	for _, mk := range preMarks {
		row := []string{hours(mk)}
		for _, m := range methods {
			if perf, ok := curves[m].At(mk); ok {
				row = append(row, fmt.Sprintf("%.0f", p.throughput(perf)))
			} else {
				row = append(row, "-")
			}
		}
		ta.row(row...)
	}
	ta.flush(w)

	fmt.Fprintf(w, "\n(b) best throughput after the drift at %s (new 9 pm workload)\n", hours(driftAt))
	tb := newTable(append([]string{"Time after drift"}, methods...)...)
	for _, frac := range []float64{0.05, 0.15, 0.3, 0.6, 1.0} {
		mk := driftAt + time.Duration(frac*float64(budget-driftAt))
		row := []string{hours(mk - driftAt)}
		for _, m := range methods {
			perf, ok := bestSince(curves[m], driftAt, mk)
			if ok {
				row = append(row, fmt.Sprintf("%.0f", p.throughput(perf)))
			} else {
				row = append(row, "-")
			}
		}
		tb.row(row...)
	}
	tb.flush(w)

	fmt.Fprintln(w, "\nrecovery time to 95% of post-drift optimum:")
	tr := newTable("Method", "Recovery")
	for _, m := range methods {
		if rt, ok := recovery[m]; ok {
			tr.row(m, hours(rt))
		} else {
			tr.row(m, "not recovered")
		}
	}
	tr.flush(w)
	return nil
}

// bestSince returns the latest curve point in [since, until] — the best
// configuration found since the drift.
func bestSince(c tuner.Curve, since, until time.Duration) (perf simdb.Perf, ok bool) {
	for _, cp := range c {
		if cp.Time >= since && cp.Time <= until {
			perf, ok = cp.Perf, true
		}
	}
	return perf, ok
}
