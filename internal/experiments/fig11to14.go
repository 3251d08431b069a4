package experiments

import (
	"fmt"
	"io"
	"time"

	"github.com/hunter-cdb/hunter/internal/cloud"
	"github.com/hunter-cdb/hunter/internal/core"
	"github.com/hunter-cdb/hunter/internal/knob"
	"github.com/hunter-cdb/hunter/internal/tuner"
	"github.com/hunter-cdb/hunter/internal/workload"
)

// RunFigure11 reproduces Figure 11: throughput obtained by each method on
// the Production workload under three cost envelopes — 1 instance for 10
// hours, 3 instances for 10 hours, and 20 instances for 5 hours.
func RunFigure11(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	p := productionMySQL()
	envelopes := []struct {
		label  string
		clones int
		budget time.Duration
	}{
		{"1 inst / 10 h", 1, cfg.budget(10 * time.Hour)},
		{"3 inst / 10 h", 3, cfg.budget(10 * time.Hour)},
		{"20 inst / 5 h", 20, cfg.budget(5 * time.Hour)},
	}
	type result struct {
		cell      string
		instHours float64
	}
	results := make([]result, len(methodNames)*len(envelopes))
	if err := runJobs(len(results), func(k int) error {
		mi, ei := k/len(envelopes), k%len(envelopes)
		env := envelopes[ei]
		s, err := runSession(cfg, p, methodNames[mi], core.Options{}, env.budget, env.clones, int64(1500+mi*10+ei))
		if err != nil {
			return err
		}
		defer s.Close()
		if best, ok := s.Best(); ok {
			results[k].cell = fmt.Sprintf("%.0f", p.throughput(best.Perf))
		} else {
			results[k].cell = "-"
		}
		results[k].instHours = s.InstanceHours()
		return nil
	}); err != nil {
		return err
	}
	t := newTable(append([]string{"Method"}, envelopeLabels(envelopes)...)...)
	costs := make([]float64, len(envelopes))
	for mi, m := range methodNames {
		row := []string{m}
		for ei := range envelopes {
			r := results[mi*len(envelopes)+ei]
			row = append(row, r.cell)
			costs[ei] = r.instHours
		}
		t.row(row...)
	}
	fmt.Fprintf(w, "best throughput (%s) on Production under equal cost\n", p.unit())
	t.flush(w)
	fmt.Fprintf(w, "cost per envelope (instance-hours incl. the user instance): %.0f / %.0f / %.0f\n",
		costs[0], costs[1], costs[2])
	return nil
}

func envelopeLabels(es []struct {
	label  string
	clones int
	budget time.Duration
}) []string {
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = e.label
	}
	return out
}

// RunFigure12 reproduces Figure 12: HUNTER's best throughput and
// recommendation time as the number of cloned CDBs grows (1, 5, 10, 15,
// 20) on MySQL/TPC-C, MySQL/Sysbench RO and PostgreSQL/TPC-C. Following
// the paper's protocol, HUNTER-N's recommendation time is the moment its
// throughput exceeds 98% of single-clone HUNTER's best.
func RunFigure12(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	budget := cfg.budget(40 * time.Hour)
	cloneCounts := []int{1, 5, 10, 15, 20}
	panels := []panel{tpccMySQL(), sysbenchROMySQL(), tpccPostgres()}

	// One session per (panel × clone count). The HUNTER-1 baseline each
	// panel's other rows compare against is applied at fold time, so the
	// sessions stay independent.
	type result struct {
		bt      float64
		curve   tuner.Curve
		recTime time.Duration
	}
	results := make([]result, len(panels)*len(cloneCounts))
	if err := runJobs(len(results), func(k int) error {
		pi, ci := k/len(cloneCounts), k%len(cloneCounts)
		s, err := runSession(cfg, panels[pi], "HUNTER", core.Options{}, budget, cloneCounts[ci], int64(1600+pi*100+ci))
		if err != nil {
			return err
		}
		defer s.Close()
		best, _ := s.Best()
		r := &results[k]
		r.bt = panels[pi].throughput(best.Perf)
		r.curve = s.Curve()
		r.recTime, _ = r.curve.RecommendationTime(s.DefaultPerf, s.Alpha, 0.98)
		return nil
	}); err != nil {
		return err
	}

	for pi, p := range panels {
		fmt.Fprintf(w, "=== %s ===\n", p.Name)
		t := newTable("Clones", fmt.Sprintf("Best T (%s)", p.unit()), "Rec. time", "Reduction vs 1 clone")
		var baseBest float64
		var baseTime time.Duration
		for ci, n := range cloneCounts {
			r := &results[pi*len(cloneCounts)+ci]
			var rt time.Duration
			if ci == 0 {
				baseBest = r.bt
				rt = r.recTime
				baseTime = rt
			} else {
				// First time the curve exceeds 98% of HUNTER-1's best.
				rt = budget
				for _, cp := range r.curve {
					if p.throughput(cp.Perf) >= 0.98*baseBest {
						rt = cp.Time
						break
					}
				}
			}
			reduction := "-"
			if ci > 0 && baseTime > 0 {
				reduction = fmt.Sprintf("%.1f%%", 100*(1-rt.Hours()/baseTime.Hours()))
			}
			t.row(fmt.Sprintf("%d", n), fmt.Sprintf("%.0f", r.bt), hours(rt), reduction)
		}
		t.flush(w)
		fmt.Fprintln(w)
	}
	return nil
}

// RunFigure13 reproduces Figure 13: the online model-reuse scheme. A model
// trained on Sysbench RW with one read/write ratio is fine-tuned on the
// other ratio (HUNTER-MR) and compared against fresh HUNTER and HUNTER-5.
func RunFigure13(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	trainBudget := cfg.budget(30 * time.Hour)
	tuneBudget := cfg.budget(30 * time.Hour)

	directions := []struct {
		label      string
		train, use func() *workload.Profile
	}{
		{"RW(1:1) <- RW(4:1)", func() *workload.Profile { return workload.SysbenchRWRatio(4, 1) }, func() *workload.Profile { return workload.SysbenchRWRatio(1, 1) }},
		{"RW(4:1) <- RW(1:1)", func() *workload.Profile { return workload.SysbenchRWRatio(1, 1) }, func() *workload.Profile { return workload.SysbenchRWRatio(4, 1) }},
	}
	type variant struct {
		label  string
		clones int
		opts   core.Options
	}
	variantsFor := func(registry *core.ReuseRegistry) []variant {
		return []variant{
			{"HUNTER", 1, core.Options{}},
			{"HUNTER-5", 5, core.Options{}},
			{"HUNTER-MR", 1, core.Options{Registry: registry}},
		}
	}

	// Round 1: one training session per direction populates its registry.
	// The variant sessions below depend on the stored models, so they form
	// a second round.
	registries := make([]*core.ReuseRegistry, len(directions))
	trainedLen := make([]int, len(directions))
	for di := range directions {
		registries[di] = core.NewReuseRegistry()
	}
	if err := runJobs(len(directions), func(di int) error {
		trainPanel := panel{Name: "train", Dialect: tpccMySQL().Dialect, Type: mysqlF(), Workload: directions[di].train}
		ts, err := runSession(cfg, trainPanel, "HUNTER", core.Options{Registry: registries[di]}, trainBudget, 1, int64(1700+di*10))
		if err != nil {
			return err
		}
		ts.Close()
		trainedLen[di] = registries[di].Len()
		return nil
	}); err != nil {
		return err
	}

	// Round 2: the (direction × variant) tuning sessions.
	type result struct {
		bestT, p95 string
		recTime    time.Duration
		reused     string
	}
	nv := len(variantsFor(nil))
	results := make([]result, len(directions)*nv)
	if err := runJobs(len(results), func(k int) error {
		di, vi := k/nv, k%nv
		v := variantsFor(registries[di])[vi]
		usePanel := panel{Name: "use", Dialect: tpccMySQL().Dialect, Type: mysqlF(), Workload: directions[di].use}
		s, t, err := runTuner(cfg, usePanel, "HUNTER", v.opts, tuneBudget, v.clones, int64(1750+di*10+vi))
		if err != nil {
			return err
		}
		defer s.Close()
		best, _ := s.Best()
		rt, _ := s.Curve().RecommendationTime(s.DefaultPerf, s.Alpha, 0.98)
		r := &results[k]
		r.bestT = fmt.Sprintf("%.0f", best.Perf.ThroughputTPS)
		r.p95 = fmt.Sprintf("%.1f", best.Perf.P95LatencyMs)
		r.recTime = rt
		r.reused = "no"
		if t.(*core.Hunter).Reused() {
			r.reused = "yes"
		}
		return nil
	}); err != nil {
		return err
	}

	for di, dir := range directions {
		fmt.Fprintf(w, "=== %s ===\n", dir.label)
		if trainedLen[di] == 0 {
			fmt.Fprintln(w, "note: training run stored no model (budget too small at this scale)")
		}
		t := newTable("Variant", "Best T (txn/s)", "p95 (ms)", "Rec. time", "Reused model")
		for vi, v := range variantsFor(registries[di]) {
			r := &results[di*nv+vi]
			t.row(v.label, r.bestT, r.p95, hours(r.recTime), r.reused)
		}
		t.flush(w)
		fmt.Fprintln(w)
	}
	return nil
}

// RunFigure14 reproduces Figure 14: model reuse across instance types. A
// model is trained on type F with TPC-C; each Table 7 instance type is
// then tuned for only five steps starting from the transplanted knowledge
// (the historical pool's best configurations), showing how hardware
// bounds performance regardless of tuning.
func RunFigure14(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	trainBudget := cfg.budget(40 * time.Hour)
	p := tpccMySQL()
	methods := []string{"OtterTune", "CDBTune", "HUNTER"}

	// Round 1: train each method once on type F and keep its best
	// configurations. The transplant sessions read those pools, so they
	// form a second round.
	seeds := make([][]tuner.Sample, len(methods))
	if err := runJobs(len(methods), func(mi int) error {
		s, err := runSession(cfg, p, methods[mi], core.Options{}, trainBudget, 1, int64(1800+mi))
		if err != nil {
			return err
		}
		defer s.Close()
		seeds[mi] = s.Pool.SortedByFitness(s.DefaultPerf, s.Alpha)
		return nil
	}); err != nil {
		return err
	}

	// Round 2: one five-step transplant session per (type × method).
	types := cloud.Types()
	cells := make([]string, len(types)*len(methods))
	if err := runJobs(len(cells), func(k int) error {
		ti, mi := k/len(methods), k%len(methods)
		it := types[ti]
		s, err := tuner.NewSession(tuner.Request{
			Dialect:  p.Dialect,
			Type:     it,
			Workload: p.Workload(),
			Budget:   2 * time.Hour, // five steps plus setup
			Clones:   1,
			Seed:     cfg.Seed + int64(1850+ti*10+mi),
			Logger:   cfg.Logger,
			Recorder: cfg.Recorder,
			Status:   cfg.Status,
		})
		if err != nil {
			return err
		}
		defer s.Close()
		// Transplant: replay the five best historical configurations
		// (clamped into this instance's bootable space by the knob
		// domain) — the "5 tuning steps" of §6.5.
		var cfgs []knob.Config
		for _, smp := range seeds[mi] {
			if len(cfgs) >= 5 {
				break
			}
			cfgs = append(cfgs, smp.Knobs)
		}
		best := s.DefaultPerf
		for _, kc := range cfgs {
			samples, err := s.EvaluateConfigs([]knob.Config{kc})
			if err != nil {
				break
			}
			for _, smp := range samples {
				if smp.Perf.Better(best, s.DefaultPerf, s.Alpha) {
					best = smp.Perf
				}
			}
		}
		cells[k] = fmt.Sprintf("%.0f", p.throughput(best))
		return nil
	}); err != nil {
		return err
	}

	t := newTable(append([]string{"Type"}, methods...)...)
	for ti, it := range types {
		row := []string{fmt.Sprintf("CDB_%s (%dc/%dGB)", it.Name, it.Cores, it.RAMGB)}
		for mi := range methods {
			row = append(row, cells[ti*len(methods)+mi])
		}
		t.row(row...)
	}
	fmt.Fprintf(w, "best throughput (%s) after 5 reused tuning steps per instance type\n", p.unit())
	t.flush(w)
	return nil
}
