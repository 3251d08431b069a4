package experiments

import (
	"fmt"
	"io"
	"time"

	"github.com/hunter-cdb/hunter/internal/core"
	"github.com/hunter-cdb/hunter/internal/knob"
	"github.com/hunter-cdb/hunter/internal/metrics"
	"github.com/hunter-cdb/hunter/internal/ml/pca"
	"github.com/hunter-cdb/hunter/internal/ml/rf"
	"github.com/hunter-cdb/hunter/internal/tuner"
)

// RunFigure4 reproduces Figure 4: best throughput and best tail latency
// versus tuning time for GA, BestConfig, OtterTune and CDBTune on MySQL
// with TPC-C — the observation behind the hybrid design: GA converges
// fastest early, DDPG has the highest ceiling.
func RunFigure4(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	budget := cfg.budget(40 * time.Hour)
	p := tpccMySQL()
	methods := []string{"GA", "BestConfig", "OtterTune", "CDBTune"}
	marks := timeMarks(budget, 8)

	curveSlots := make([]tuner.Curve, len(methods))
	if err := runJobs(len(methods), func(i int) error {
		s, err := runSession(cfg, p, methods[i], core.Options{}, budget, 1, int64(400+i))
		if err != nil {
			return err
		}
		defer s.Close()
		curveSlots[i] = s.Curve()
		return nil
	}); err != nil {
		return err
	}
	curves := map[string]tuner.Curve{}
	for i, m := range methods {
		curves[m] = curveSlots[i]
	}

	fmt.Fprintf(w, "(a) best throughput (%s) vs tuning time\n", p.unit())
	ta := newTable(append([]string{"Time"}, methods...)...)
	for _, mk := range marks {
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

	fmt.Fprintln(w, "\n(b) best 95% latency (ms) vs tuning time")
	tb := newTable(append([]string{"Time"}, methods...)...)
	for _, mk := range marks {
		row := []string{hours(mk)}
		for _, m := range methods {
			if perf, ok := curves[m].At(mk); ok {
				row = append(row, fmt.Sprintf("%.1f", perf.P95LatencyMs))
			} else {
				row = append(row, "-")
			}
		}
		tb.row(row...)
	}
	tb.flush(w)
	return nil
}

// timeMarks returns n checkpoints spanning the budget.
func timeMarks(budget time.Duration, n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = budget * time.Duration(i+1) / time.Duration(n)
	}
	return out
}

// RunFigure5 reproduces Figure 5: within 300 tuning steps, the
// distribution of sample quality (throughput distance below the best
// sample) for BestConfig, OtterTune, CDBTune and GA. The paper finds GA
// concentrates far more samples within 20% of the best — the reason it is
// the Sample Factory.
func RunFigure5(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	// The 300-step window is the experiment's own parameter; scale only
	// shrinks it mildly (the distribution is meaningless with too few
	// samples).
	steps := int(300 * cfg.Scale)
	if steps < 200 {
		steps = 200
	}
	budget := time.Duration(float64(steps)*168) * time.Second
	p := tpccMySQL()
	methods := []string{"BestConfig", "OtterTune", "CDBTune", "GA"}
	buckets := []string{"<10%", "10-20%", "20-30%", ">30%"}

	rows := make([][]string, len(methods))
	if err := runJobs(len(methods), func(i int) error {
		s, err := runSession(cfg, p, methods[i], core.Options{}, budget, 1, int64(500+i))
		if err != nil {
			return err
		}
		defer s.Close()
		var best float64
		var ts []float64
		for _, smp := range s.Pool.All() {
			if smp.Step > steps || smp.Perf.Failed {
				continue
			}
			ts = append(ts, smp.Perf.ThroughputTPS)
			if smp.Perf.ThroughputTPS > best {
				best = smp.Perf.ThroughputTPS
			}
		}
		counts := make([]int, 4)
		for _, v := range ts {
			gap := (best - v) / best
			switch {
			case gap < 0.10:
				counts[0]++
			case gap < 0.20:
				counts[1]++
			case gap < 0.30:
				counts[2]++
			default:
				counts[3]++
			}
		}
		row := []string{methods[i]}
		for _, c := range counts {
			row = append(row, fmt.Sprintf("%.2f%%", 100*float64(c)/float64(len(ts))))
		}
		rows[i] = row
		return nil
	}); err != nil {
		return err
	}
	t := newTable(append([]string{"Method"}, buckets...)...)
	for _, row := range rows {
		t.row(row...)
	}
	t.flush(w)
	return nil
}

// RunFigure6 reproduces Figure 6: the best performance after a fixed DRL
// tuning budget as a function of the number of GA samples used to
// warm-start it; the paper observes a plateau at 140 samples.
func RunFigure6(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	drl := cfg.budget(10 * time.Hour)
	sampleCounts := []int{20, 60, 100, 140, 180}
	panels := []panel{tpccMySQL(), sysbenchRWMySQL()}

	cells := make([]string, len(sampleCounts)*len(panels))
	if err := runJobs(len(cells), func(k int) error {
		i, j := k/len(panels), k%len(panels)
		n, p := sampleCounts[i], panels[j]
		sampleTime := time.Duration(n) * 170 * time.Second
		s, err := runSession(cfg, p, "HUNTER",
			core.Options{SampleTarget: n, Patience: 1000},
			sampleTime+drl, 1, int64(600+i*10+j))
		if err != nil {
			return err
		}
		defer s.Close()
		best, _ := s.Best()
		cells[k] = fmt.Sprintf("%.0f", p.throughput(best.Perf))
		return nil
	}); err != nil {
		return err
	}
	t := newTable("GA samples", panels[0].Name+" ("+panels[0].unit()+")", panels[1].Name+" ("+panels[1].unit()+")")
	for i, n := range sampleCounts {
		row := []string{fmt.Sprintf("%d", n)}
		for j := range panels {
			row = append(row, cells[i*len(panels)+j])
		}
		t.row(row...)
	}
	t.flush(w)
	return nil
}

// RunFigure7 reproduces Figure 7: (a) the cumulative proportion of
// variance of the PCA components over the 63 metrics of TPC-C samples —
// the paper reaches 91% at 13 components — and (b) how the top-2
// components separate samples by reward.
func RunFigure7(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	p := tpccMySQL()
	// The PCA is fitted over the Sample Factory's pool (≈140 samples +
	// random init); like Figure 5's 300-step window this is the
	// experiment's own parameter and is not scaled down.
	budget := 8 * time.Hour
	s, err := runSession(cfg, p, "GA", core.Options{}, budget, 1, 700)
	if err != nil {
		return err
	}
	defer s.Close()

	var rows [][]float64
	var rewards []float64
	for _, smp := range s.Pool.All() {
		if len(smp.State) != metrics.Count {
			continue
		}
		rows = append(rows, smp.State)
		rewards = append(rewards, s.Fitness(smp.Perf))
	}
	if len(rows) < 10 {
		return fmt.Errorf("fig7: only %d valid samples", len(rows))
	}
	model, err := pca.Fit(rows, 0.90, 0)
	if err != nil {
		return err
	}

	fmt.Fprintln(w, "(a) cumulative proportion of variance of components")
	ta := newTable("Components", "CDF")
	cdf := model.VarianceCDF()
	sel := -1
	for i := 0; i < len(cdf) && i < 20; i++ {
		ta.row(fmt.Sprintf("%d", i+1), fmt.Sprintf("%.1f%%", 100*cdf[i]))
		if sel == -1 && cdf[i] >= 0.90 {
			sel = i + 1
		}
	}
	ta.flush(w)
	fmt.Fprintf(w, "selected v = %d components (CDF ≥ 90%%; paper: 13 at 91%%)\n", sel)

	fmt.Fprintln(w, "\n(b) reward by top-2 component quadrant (regularized)")
	// Project all samples onto components 1–2, then report the mean
	// reward per quadrant — the separation Figure 7(b) visualizes.
	type agg struct {
		sum float64
		n   int
	}
	quad := map[string]*agg{}
	var m1, m2 float64
	zs := make([][]float64, len(rows))
	for i, r := range rows {
		z, err := model.Transform(r)
		if err != nil {
			return err
		}
		zs[i] = z
		m1 += z[0]
		m2 += z[1]
	}
	m1 /= float64(len(zs))
	m2 /= float64(len(zs))
	for i, z := range zs {
		key := fmt.Sprintf("c1%s c2%s", sign(z[0]-m1), sign(z[1]-m2))
		if quad[key] == nil {
			quad[key] = &agg{}
		}
		quad[key].sum += rewards[i]
		quad[key].n++
	}
	tb := newTable("Quadrant", "Samples", "Mean reward")
	for _, k := range sortedKeys(quad) {
		a := quad[k]
		tb.row(k, fmt.Sprintf("%d", a.n), fmt.Sprintf("%.3f", a.sum/float64(a.n)))
	}
	tb.flush(w)
	return nil
}

func sign(v float64) string {
	if v >= 0 {
		return "+"
	}
	return "-"
}

// RunFigure8 reproduces Figure 8: tuning performance versus the number of
// top-ranked knobs, for RF rankings trained on n = 70, 140 and 280
// samples. The paper's findings: top-20 knobs match tuning all 70, and
// n ≥ 140 samples stabilize the ranking.
func RunFigure8(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	p := tpccMySQL()
	drl := cfg.budget(6 * time.Hour)
	knobCounts := []int{5, 10, 20, 40, 70}
	sampleCounts := []int{70, 140, 280}
	allKnobs := knob.MySQL().Names() // Figure 8 ranks the full 70-knob catalog

	// The (samples × top-k) grid plus one GA session for the RF ranking,
	// all independent.
	grid := len(sampleCounts) * len(knobCounts)
	cells := make([]string, grid)
	var ranking []string
	if err := runJobs(grid+1, func(job int) error {
		if job == grid {
			// RF ranking from a 140-sample pool (fixed size: the ranking
			// is meaningless on a handful of samples).
			s, err := runSession(cfg, p, "GA", core.Options{}, 8*time.Hour, 1, 890)
			if err != nil {
				return err
			}
			defer s.Close()
			var x [][]float64
			var y []float64
			for _, smp := range s.Pool.All() {
				x = append(x, smp.Point)
				y = append(y, s.Fitness(smp.Perf))
			}
			forest, err := rf.Train(x, y, rf.Options{Trees: 200}, s.RNG.Fork())
			if err != nil {
				return err
			}
			names := s.Space.Names()
			for rank, idx := range forest.TopK(10) {
				ranking = append(ranking, fmt.Sprintf("  %2d. %-36s %.3f", rank+1, names[idx], forest.Importance()[idx]))
			}
			return nil
		}
		si, ki := job/len(knobCounts), job%len(knobCounts)
		n, k := sampleCounts[si], knobCounts[ki]
		sampleTime := time.Duration(n) * 170 * time.Second
		s, err := tuner.NewSession(tuner.Request{
			Dialect:   p.Dialect,
			Type:      p.Type,
			Workload:  p.Workload(),
			KnobNames: allKnobs,
			Budget:    sampleTime + drl,
			Clones:    1,
			Seed:      cfg.Seed + int64(800+si*10+ki),
			Logger:    cfg.Logger,
			Recorder:  cfg.Recorder,
			Status:    cfg.Status,
		})
		if err != nil {
			return err
		}
		defer s.Close()
		h := newTuner("HUNTER", core.Options{SampleTarget: n, Patience: 1000, TopK: k})
		if err := h.Tune(s); err != nil {
			return err
		}
		best, _ := s.Best()
		cells[job] = fmt.Sprintf("%.0f / %.1f", p.throughput(best.Perf), best.Perf.P95LatencyMs)
		return nil
	}); err != nil {
		return err
	}

	fmt.Fprintf(w, "throughput (%s) / p95 latency (ms) after equal-budget tuning of top-k knobs\n", p.unit())
	t := newTable(append([]string{"n samples"}, intHeaders("top-", knobCounts)...)...)
	for si, n := range sampleCounts {
		row := []string{fmt.Sprintf("%d", n)}
		for ki := range knobCounts {
			row = append(row, cells[si*len(knobCounts)+ki])
		}
		t.row(row...)
	}
	t.flush(w)

	fmt.Fprintln(w, "\ntop-10 knobs by RF importance:")
	for _, line := range ranking {
		fmt.Fprintln(w, line)
	}
	return nil
}

func intHeaders(prefix string, vals []int) []string {
	out := make([]string, len(vals))
	for i, v := range vals {
		out[i] = fmt.Sprintf("%s%d", prefix, v)
	}
	return out
}
