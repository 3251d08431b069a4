// Package experiments reproduces every table and figure of the paper's
// evaluation (§6). Each experiment is a named runner that executes the
// corresponding tuning sessions on the simulated cloud and prints the same
// rows/series the paper reports. The Scale knob shrinks the virtual time
// budgets so the whole suite can run as benchmarks; cmd/hunter-repro runs
// at full scale.
package experiments

import (
	"fmt"
	"io"
	"log/slog"
	"sort"
	"strings"
	"time"

	"github.com/hunter-cdb/hunter/internal/cloud"
	"github.com/hunter-cdb/hunter/internal/core"
	"github.com/hunter-cdb/hunter/internal/simdb"
	"github.com/hunter-cdb/hunter/internal/telemetry"
	"github.com/hunter-cdb/hunter/internal/tuner"
	"github.com/hunter-cdb/hunter/internal/tuners/bestconfig"
	"github.com/hunter-cdb/hunter/internal/tuners/cdbtune"
	"github.com/hunter-cdb/hunter/internal/tuners/gatuner"
	"github.com/hunter-cdb/hunter/internal/tuners/ottertune"
	"github.com/hunter-cdb/hunter/internal/tuners/qtune"
	"github.com/hunter-cdb/hunter/internal/tuners/restune"
	"github.com/hunter-cdb/hunter/internal/workload"
)

// Config controls an experiment run.
type Config struct {
	// Scale multiplies every virtual-time budget (1 = paper scale). The
	// benchmark suite uses small scales; recommendation-time *ratios*
	// between methods are stable under scaling, absolute hours shrink.
	Scale float64
	Seed  int64
	// Recorder, when non-nil, traces every session the experiments run.
	// The recorder is passive (it never touches clocks, RNGs or output
	// writers), so experiment output is byte-identical with it on or off.
	Recorder *telemetry.Recorder
	// Logger receives each session's structured progress events. Nil
	// disables logging; loggers write to stderr, never to the experiment's
	// result writer.
	Logger *slog.Logger
	// Status receives live SessionStatus updates from every session the
	// experiments run — typically an obsv.Registry behind the -serve
	// introspection server. Like the Recorder it is passive: publishing
	// never changes experiment output.
	Status tuner.StatusSink
}

func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if c.Seed == 0 {
		c.Seed = 2022
	}
	return c
}

// budget scales a paper-scale budget, with a floor that keeps at least a
// handful of tuning steps possible.
func (c Config) budget(paper time.Duration) time.Duration {
	b := time.Duration(float64(paper) * c.Scale)
	if min := 45 * time.Minute; b < min {
		b = min
	}
	return b
}

// Runner executes one experiment, writing its tables/series to w.
type Runner struct {
	ID    string
	Title string
	Run   func(cfg Config, w io.Writer) error
}

// All returns every experiment in paper order.
func All() []Runner {
	return []Runner{
		{"table1", "Table 1: time breakdown for tuning in each step", RunTable1},
		{"fig1", "Figure 1: online tuning steps and time for the optimal throughput", RunFigure1},
		{"fig4", "Figure 4: performance change with increasing tuning time", RunFigure4},
		{"fig5", "Figure 5: sample quality distribution within 300 steps", RunFigure5},
		{"fig6", "Figure 6: best performance vs number of GA samples", RunFigure6},
		{"fig7", "Figure 7: PCA component selection and effect", RunFigure7},
		{"fig8", "Figure 8: performance vs number of tuned knobs", RunFigure8},
		{"fig9", "Figure 9: comparison with state-of-the-art tuning systems", RunFigure9},
		{"fig10", "Figure 10: throughput under real-world workload drift", RunFigure10},
		{"table3", "Table 3: ablation on MySQL with TPC-C", RunTable3},
		{"table4", "Table 4: ablation on MySQL with Sysbench RW", RunTable4},
		{"table5", "Table 5: ablation on PostgreSQL with TPC-C", RunTable5},
		{"table6", "Table 6: DRL warm-up ablation (HER vs GA+)", RunTable6},
		{"fig11", "Figure 11: throughput with different cost", RunFigure11},
		{"fig12", "Figure 12: throughput and recommendation time vs cloned CDBs", RunFigure12},
		{"fig13", "Figure 13: online model reuse", RunFigure13},
		{"fig14", "Figure 14: model reuse across instance types", RunFigure14},
		{"alpha", "Extra: recommended operating point vs the α preference", RunAlphaSensitivity},
		{"chaos", "Extra: fault injection and self-healing (deterministic chaos plan, quarantine, fleet-loss fallback)", RunChaos},
		{"evalcost", "Extra: evaluation cost collapse (compressed kernel vs full trace, wave dedup, warm-state deltas)", RunEvalCost},
		{"safety", "Extra: online safe tuning under live drift (guardrails, canary gate, trust region, automatic rollback)", RunSafety},
	}
}

// ByID returns the runner with the given ID.
func ByID(id string) (Runner, error) {
	for _, r := range All() {
		if r.ID == id {
			return r, nil
		}
	}
	var ids []string
	for _, r := range All() {
		ids = append(ids, r.ID)
	}
	return Runner{}, fmt.Errorf("experiments: unknown id %q (have %s)", id, strings.Join(ids, ", "))
}

// methodNames is the comparison order used throughout §6.
var methodNames = []string{"BestConfig", "OtterTune", "CDBTune", "QTune", "ResTune", "HUNTER"}

// newTuner builds a tuning method by name. HUNTER accepts module options.
func newTuner(name string, opts core.Options) tuner.Tuner {
	switch name {
	case "BestConfig":
		return bestconfig.New()
	case "OtterTune":
		return ottertune.New()
	case "CDBTune":
		return cdbtune.New()
	case "QTune":
		return qtune.New()
	case "ResTune":
		return restune.New()
	case "GA":
		return gatuner.New()
	case "HUNTER":
		return core.New(opts)
	}
	panic(fmt.Sprintf("experiments: unknown method %q", name))
}

// panel describes a (database, workload, instance) combination.
type panel struct {
	Name     string
	Dialect  simdb.Dialect
	Type     cloud.InstanceType
	Workload func() *workload.Profile
	// TPM reports throughput in txn/min (TPC-C convention) instead of
	// txn/s.
	TPM bool
}

func mysqlF() cloud.InstanceType { t, _ := cloud.TypeByName("F"); return t }
func prodD() cloud.InstanceType  { t, _ := cloud.TypeByName("D"); return t }
func pgHost() cloud.InstanceType { return cloud.CustomType("PG", 8, 16) }

func tpccMySQL() panel {
	return panel{Name: "MySQL/TPC-C", Dialect: simdb.MySQL, Type: mysqlF(), Workload: workload.TPCC, TPM: true}
}
func sysbenchWOMySQL() panel {
	return panel{Name: "MySQL/Sysbench WO", Dialect: simdb.MySQL, Type: mysqlF(), Workload: workload.SysbenchWO}
}
func sysbenchROMySQL() panel {
	return panel{Name: "MySQL/Sysbench RO", Dialect: simdb.MySQL, Type: mysqlF(), Workload: workload.SysbenchRO}
}
func sysbenchRWMySQL() panel {
	return panel{Name: "MySQL/Sysbench RW", Dialect: simdb.MySQL, Type: mysqlF(), Workload: workload.SysbenchRW}
}
func tpccPostgres() panel {
	return panel{Name: "PostgreSQL/TPC-C", Dialect: simdb.Postgres, Type: pgHost(), Workload: workload.TPCC, TPM: true}
}
func productionMySQL() panel {
	return panel{Name: "MySQL/Production", Dialect: simdb.MySQL, Type: prodD(), Workload: workload.Production}
}

// throughput formats perf in the panel's display unit.
func (p panel) throughput(perf simdb.Perf) float64 {
	if p.TPM {
		return perf.TPM()
	}
	return perf.ThroughputTPS
}

func (p panel) unit() string {
	if p.TPM {
		return "txn/min"
	}
	return "txn/s"
}

// scaledSampleTarget shrinks HUNTER's phase-1 sample target with the
// experiment scale: the paper's 140 samples amortize over a 70-hour
// session, and a scaled-down budget must scale the warm-start cost too or
// phase 1 would consume the whole session.
func (c Config) scaledSampleTarget() int {
	n := int(140 * c.Scale)
	if n < 40 {
		n = 40
	}
	if n > 140 {
		n = 140
	}
	return n
}

// runSession creates a session for the panel and runs the named method on
// it. The returned session is closed by the caller.
func runSession(cfg Config, p panel, method string, opts core.Options, budget time.Duration, clones int, seedOffset int64) (*tuner.Session, error) {
	s, _, err := runTuner(cfg, p, method, opts, budget, clones, seedOffset)
	return s, err
}

// runTuner is runSession that also returns the tuner, for callers that
// read its diagnostics. A HUNTER run with a registry commits its trained
// model there.
func runTuner(cfg Config, p panel, method string, opts core.Options, budget time.Duration, clones int, seedOffset int64) (*tuner.Session, tuner.Tuner, error) {
	if method == "HUNTER" && opts.SampleTarget == 0 {
		opts.SampleTarget = cfg.scaledSampleTarget()
	}
	s, err := tuner.NewSession(tuner.Request{
		Dialect:  p.Dialect,
		Type:     p.Type,
		Workload: p.Workload(),
		Budget:   budget,
		Clones:   clones,
		Seed:     cfg.Seed + seedOffset,
		Logger:   cfg.Logger,
		Recorder: cfg.Recorder,
		Status:   cfg.Status,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: %s on %s: %w", method, p.Name, err)
	}
	t := newTuner(method, opts)
	if err := t.Tune(s); err != nil {
		s.Close()
		return nil, nil, fmt.Errorf("experiments: %s on %s: %w", method, p.Name, err)
	}
	if h, ok := t.(*core.Hunter); ok {
		if m, ok := h.Model(); ok {
			opts.Registry.Commit(m)
		}
	}
	return s, t, nil
}

// tw is a minimal aligned-column table writer.
type tw struct {
	header []string
	rows   [][]string
}

func newTable(header ...string) *tw { return &tw{header: header} }

func (t *tw) row(cells ...string) { t.rows = append(t.rows, cells) }

func (t *tw) flush(w io.Writer) {
	width := make([]int, len(t.header))
	for i, h := range t.header {
		width[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", width[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", width[i])
	}
	line(sep)
	for _, r := range t.rows {
		line(r)
	}
}

// hours renders a duration as fractional hours.
func hours(d time.Duration) string { return fmt.Sprintf("%.1f h", d.Hours()) }

// sortedKeys returns a map's keys sorted (stable table output).
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Duration units used by tests.
const (
	minute = time.Minute
	hour   = time.Hour
)

// hunterDefaults returns HUNTER's default module options.
func hunterDefaults() core.Options { return core.Options{} }
