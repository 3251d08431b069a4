package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"github.com/hunter-cdb/hunter/internal/parallel"
)

// endToEnd lists the untraced run's metrics: what a user of the tuning
// stack waits for and pays for. The tuning's quality (re-measured fitness,
// recommendation time) is exact at each seed but varies from seed to seed
// far more than a bound could absorb, so it is checked per seed and
// reported by the traced run, not bounded here.
var endToEnd = []layerDef{
	{"steps_per_s", "1/s", "higher"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// stamp is the environment a result was measured in.
type stamp struct {
	Workload    string   `json:"workload"`
	Seed        int64    `json:"seed"`
	HeldOutSeed int64    `json:"held_out_seed"`
	Seconds     float64  `json:"seconds"`
	Traced      bool     `json:"traced"`
	Sessions    int      `json:"sessions"`
	NProc       int      `json:"nproc"`
	GOMAXPROCS  int      `json:"gomaxprocs"`
	Clones      int      `json:"clones_per_session"`
	FleetFanout int      `json:"fleet_fanout"`
	GoVersion   string   `json:"go_version"`
	Commit      string   `json:"commit"`
	Source      string   `json:"source_digest"`
	Params      []string `json:"params"`
	Time        string   `json:"time"`
}

// newStamp describes this run. Children inherit GOMAXPROCS = nproc, and
// the fleet fans out over parallel.Workers, which follows GOMAXPROCS.
func newStamp(w *workloadDef, seed int64, seconds time.Duration, traced bool) *stamp {
	runtime.GOMAXPROCS(runtime.NumCPU())
	sessions := w.sessionsPerRun(seconds)
	if traced {
		sessions = 1
	}
	return &stamp{
		Workload:    w.name,
		Seed:        seed,
		HeldOutSeed: w.heldOut,
		Seconds:     seconds.Seconds(),
		Traced:      traced,
		Sessions:    sessions,
		NProc:       runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Clones:      clonesPerSession,
		FleetFanout: parallel.Workers(),
		GoVersion:   runtime.Version(),
		Commit:      commit(),
		Source:      sourceDigest("."),
		Params:      w.params,
		Time:        time.Now().UTC().Format(time.RFC3339),
	}
}

func (st *stamp) print(w io.Writer) {
	fmt.Fprintf(w, "tunebench %s  seed %d (held-out seed %d)  %d session(s) over %.0fs\n",
		st.Workload, st.Seed, st.HeldOutSeed, st.Sessions, st.Seconds)
	fmt.Fprintf(w, "  nproc %d  GOMAXPROCS %d  clones/session %d  fleet fan-out %d  %s  commit %s  source %s\n",
		st.NProc, st.GOMAXPROCS, st.Clones, st.FleetFanout, st.GoVersion, st.Commit, st.Source)
	fmt.Fprintf(w, "  params: %s\n", strings.Join(st.Params, "  "))
}

// commit is the VCS revision the binary was built from, when the build
// had one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// sourceDigest fingerprints the Go sources under root, so results of the
// same code can be told apart from others where no VCS revision exists.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && filepath.Base(path) != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// printSessions prints the run's per-session figures and set-up samples.
func printSessions(w io.Writer, samples []sessionSample, setupS []float64) {
	fmt.Fprintf(w, "\nsessions of this run (each in a fresh process):\n")
	fmt.Fprintf(w, "  %-16s %7s %6s %8s %8s %8s %9s %8s %6s\n", "seed", "steps", "waves", "tune_s", "steps/s", "rss_mb", "fitness", "rec_vh", "failed")
	for _, s := range samples {
		o := s.Out
		fmt.Fprintf(w, "  %-16d %7d %6d %8.3f %8.2f %8.1f %9.4f %8.2f %3d/%-3d\n", s.Seed, o.Steps, o.Waves, s.TuneS,
			float64(o.Steps)/s.TuneS, s.RSS, o.Det.RemeasuredFitness, o.Det.RecTimeVH, o.Failed, o.Attempted)
	}
	q1, q2, q3 := quartiles(setupS)
	fmt.Fprintf(w, "  set-up: median %.4gs  quartiles %.4g..%.4g  over %d samples\n", q2, q1, q3, len(setupS))
}

// historyEntry is one run's end-to-end result, kept for the spread report.
type historyEntry struct {
	Stamp   *stamp            `json:"stamp"`
	Metrics map[string]metric `json:"metrics"`
}

var historyPath = filepath.Join(stateDir, "history.jsonl")

// recordHistory appends this run's metrics to the checkout's history.
func recordHistory(st *stamp, m map[string]metric) error {
	if err := os.MkdirAll(stateDir, 0o755); err != nil {
		return err
	}
	line, err := json.Marshal(historyEntry{Stamp: st, Metrics: m})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(historyPath, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printSpread prints, for every metric in defs, the median, quartiles,
// min, max and count over all recorded runs of this workload and kind
// (traced or not) on this source, and flags metrics whose runs stray more
// than strayLimit from their median.
func printSpread(w io.Writer, st *stamp, defs []layerDef) error {
	f, err := os.Open(historyPath)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	defer f.Close()
	vals := map[string][]float64{}
	seeds := map[int64]bool{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var e historyEntry
		if json.Unmarshal(sc.Bytes(), &e) != nil || e.Stamp == nil {
			continue // a torn line from an interrupted run
		}
		if e.Stamp.Workload != st.Workload || e.Stamp.Source != st.Source || e.Stamp.Seconds != st.Seconds || e.Stamp.Traced != st.Traced {
			continue
		}
		seeds[e.Stamp.Seed] = true
		for name, m := range e.Metrics {
			vals[name] = append(vals[name], m.Value)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	kind := "untraced"
	if st.Traced {
		kind = "traced"
	}
	fmt.Fprintf(w, "\nspread over the recorded %s runs of %s on this source (%d seeds):\n", kind, st.Workload, len(seeds))
	fmt.Fprintf(w, "  %-28s %-6s %12s %12s %12s %12s %12s %7s %4s %s\n", "metric", "unit", "median", "q1", "q3", "min", "max", "iqr/med", "runs", "")
	for _, d := range defs {
		xs := vals[d.name]
		if len(xs) == 0 {
			continue
		}
		q1, q2, q3 := quartiles(xs)
		s := sorted(xs)
		flag := ""
		if !st.Traced && strays(xs) {
			flag = fmt.Sprintf("STRAYS >%.0f%% from median", 100*strayLimit)
		}
		fmt.Fprintf(w, "  %-28s %-6s %12.5g %12.5g %12.5g %12.5g %12.5g %7.3f %4d %s\n", d.name, d.unit, q2, q1, q3, s[0], s[len(s)-1], spread(xs), len(xs), flag)
	}
	return nil
}

// traceRun is a traced run: one untraced session as the baseline, then
// the same session traced; their deterministic results must agree.
func traceRun(ctx context.Context, exe string, w *workloadDef, seed int64, seconds time.Duration, st *stamp) (*result, error) {
	s := subSeed(seed, 0)
	base, err := runChild(ctx, exe, "tune", w, s, seconds)
	if err != nil {
		return nil, err
	}
	traced, err := runChild(ctx, exe, "trace", w, s, seconds)
	if err != nil {
		return nil, err
	}
	res := &result{Correct: true, Metrics: map[string]metric{}}
	var problems []string
	for _, cr := range []*childResult{base, traced} {
		res.Attempted += cr.Outcome.Attempted
		res.Failed += cr.Outcome.Failed
		problems = append(problems, cr.Outcome.Checks...)
	}
	for _, p := range diffDet(base.Outcome.Det, traced.Outcome.Det) {
		problems = append(problems, "traced run differs: "+p)
	}
	problems = append(problems, checkDeterminism(st, s, base.Outcome.Det)...)
	for _, p := range problems {
		fmt.Printf("check failed: %s\n", p)
	}
	if len(problems) > 0 {
		res.Correct = false
		res.Failed++
	}
	lr := traced.Layers
	lr.set("telemetry.overhead", traced.TuneS/base.TuneS-1)
	printLayers(os.Stdout, lr, base, traced)
	for _, d := range perLayer {
		res.Metrics[d.name] = metric{lr.Metrics[d.name], d.unit}
	}
	if err := recordHistory(st, res.Metrics); err != nil {
		return nil, err
	}
	if err := printSpread(os.Stdout, st, perLayer); err != nil {
		return nil, err
	}
	return res, nil
}

// printLayers prints the per-layer table and the self-time table.
func printLayers(w io.Writer, lr *layerReport, base, traced *childResult) {
	fmt.Fprintf(w, "\ntraced run: tuning %.3fs traced vs %.3fs untraced; traced wall incl. set-up %.3fs; spans in %s\n",
		traced.TuneS, base.TuneS, lr.TracedS, lr.Spans)
	fmt.Fprintf(w, "\nper-layer timings:\n  %-24s %10s %10s %6s %6s\n", "timing", "p50", "tail", "at", "n")
	names := make([]string, 0, len(lr.Timings))
	for name := range lr.Timings {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t := lr.Timings[name]
		tail, at := "-", "-"
		if t.TailAt > 50 {
			tail, at = fmt.Sprintf("%.4g", t.Tail), fmt.Sprintf("p%g", t.TailAt)
		}
		fmt.Fprintf(w, "  %-24s %10.4g %10s %6s %6d\n", name, t.P50, tail, at, t.N)
	}
	fmt.Fprintf(w, "\nper-layer metrics:\n")
	for _, d := range perLayer {
		fmt.Fprintf(w, "  %-28s %12.6g %s\n", d.name, lr.Metrics[d.name], d.unit)
	}
	fmt.Fprintf(w, "\nself time by module over the traced wall (%.3fs); parallel tenants add up to worker time:\n", lr.TracedS)
	fmt.Fprintf(w, "  %-14s %10s %8s %6s\n", "module", "self_s", "share", "spans")
	for _, row := range lr.Self {
		fmt.Fprintf(w, "  %-14s %10.4f %7.1f%% %6d\n", row.Module, row.SelfS, 100*row.Share, row.Spans)
	}
	fmt.Fprintf(w, "  replay estimates of work inside the tuning, as shares of its CPU time: simdb Engine.Run %.1f%%, DDPG training %.1f%%\n",
		100*lr.Metrics["simdb.cpu_share"], 100*lr.Metrics["ml.ddpg_cpu_share"])
}
