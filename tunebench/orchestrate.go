package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

// stateDir holds what runs leave for later runs of the same checkout: the
// deterministic results per seed and the history behind the spread
// report. It is relative to the checkout root, where the benchmark runs.
const stateDir = ".bench_build/tunebench"

// childDeadline bounds one run's child processes; a run must end well
// within three minutes.
const childDeadline = 150 * time.Second

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// subSeed derives the seed of the i-th session of a run.
func subSeed(seed int64, i int) int64 { return seed*1_000_003 + int64(i) }

// orchestrate runs one benchmark run: every tuning in a fresh child
// process, outputs checked, metrics aggregated.
func orchestrate(w *workloadDef, seed int64, seconds time.Duration, traced bool) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childDeadline)
	defer cancel()
	st := newStamp(w, seed, seconds, traced)
	st.print(os.Stdout)
	if traced {
		return traceRun(ctx, exe, w, seed, seconds, st)
	}
	return measuredRun(ctx, exe, w, seed, seconds, st)
}

// sessionsPerRun is how many sessions, each in its own process, one run
// tunes, at least one. It depends on the seconds alone, so every run of a
// workload at a seed tunes the same sessions.
func (w *workloadDef) sessionsPerRun(seconds time.Duration) int {
	return max(1, int(seconds/w.nominal))
}

// measuredRun is an untraced run: the end-to-end metrics.
func measuredRun(ctx context.Context, exe string, w *workloadDef, seed int64, seconds time.Duration, st *stamp) (*result, error) {
	res := &result{Correct: true, Metrics: map[string]metric{}}
	var (
		setupS, rate, rss []float64
		samples           []sessionSample
	)
	for i := 0; i < w.sessionsPerRun(seconds); i++ {
		// The set-up samples are spread over the run, a few before each
		// session, so their median sees the host as the sessions do.
		setup, err := runChild(ctx, exe, "setup", w, seed, seconds)
		if err != nil {
			return nil, fmt.Errorf("set-up child: %w", err)
		}
		setupS = append(setupS, setup.SetupS...)
		s := subSeed(seed, i)
		cr, err := runChild(ctx, exe, "tune", w, s, seconds)
		res.Attempted++
		if err != nil {
			fmt.Printf("session seed %d failed: %v\n", s, err)
			res.Failed++
			res.Correct = false
			continue
		}
		o := cr.Outcome
		res.Attempted += o.Attempted - 1
		res.Failed += o.Failed
		problems := append(o.Checks, checkDeterminism(st, s, o.Det)...)
		for _, p := range problems {
			fmt.Printf("session seed %d: check failed: %s\n", s, p)
		}
		if len(problems) > 0 {
			res.Correct = false
			if o.Failed == 0 {
				res.Failed++
			}
			continue
		}
		rate = append(rate, float64(o.Steps)/cr.TuneS)
		rss = append(rss, cr.PeakRSSMB)
		samples = append(samples, sessionSample{Seed: s, TuneS: cr.TuneS, RSS: cr.PeakRSSMB, Out: o})
	}
	if len(samples) == 0 {
		return nil, errors.New("no session completed")
	}
	res.Metrics["steps_per_s"] = metric{trimmedMean(rate), "1/s"}
	res.Metrics["setup_s"] = metric{median(setupS), "s"}
	res.Metrics["peak_rss_mb"] = metric{trimmedMean(rss), "MB"}
	printSessions(os.Stdout, samples, setupS)
	if err := recordHistory(st, res.Metrics); err != nil {
		return nil, err
	}
	if err := printSpread(os.Stdout, st, endToEnd); err != nil {
		return nil, err
	}
	return res, nil
}

// sessionSample is one tuned session of a measured run.
type sessionSample struct {
	Seed  int64
	TuneS float64
	RSS   float64
	Out   *outcome
}

// runChild runs one measurement in a fresh process of this binary and
// decodes its report. The child's stderr passes through.
func runChild(ctx context.Context, exe, mode string, w *workloadDef, seed int64, seconds time.Duration) (*childResult, error) {
	cmd := exec.CommandContext(ctx, exe, "-child", mode, "-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(int(seconds/time.Second)))
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(runtime.NumCPU()))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s child: %w", mode, err)
	}
	var cr childResult
	if err := json.Unmarshal(out.Bytes(), &cr); err != nil {
		return nil, fmt.Errorf("%s child report: %w", mode, err)
	}
	return &cr, nil
}

// checkDeterminism compares a session's deterministic results with those
// an earlier run of the same sources recorded for the same workload and
// seed, and records them when none were.
func checkDeterminism(st *stamp, seed int64, d det) []string {
	path := filepath.Join(stateDir, "det", st.Source, fmt.Sprintf("%s-%d.json", st.Workload, seed))
	prev, err := os.ReadFile(path)
	if err == nil {
		var want det
		if err := json.Unmarshal(prev, &want); err != nil {
			return []string{fmt.Sprintf("unreadable earlier result %s: %v", path, err)}
		}
		return diffDet(want, d)
	}
	if !errors.Is(err, os.ErrNotExist) {
		return []string{err.Error()}
	}
	data, err := json.Marshal(d)
	if err != nil {
		return []string{err.Error()}
	}
	if err := writeAtomic(path, data); err != nil {
		return []string{err.Error()}
	}
	return nil
}

// diffDet lists every deterministic result that differs.
func diffDet(want, got det) []string {
	var out []string
	cmp := func(name string, a, b any) {
		if a != b {
			out = append(out, fmt.Sprintf("%s = %v, an earlier run at this seed had %v", name, b, a))
		}
	}
	cmp("steps", want.Steps, got.Steps)
	cmp("waves", want.Waves, got.Waves)
	cmp("deployed config digest", want.Config, got.Config)
	cmp("remeasured_fitness", want.RemeasuredFitness, got.RemeasuredFitness)
	cmp("rec_time_vh", want.RecTimeVH, got.RecTimeVH)
	cmp("fleet report digest", want.Report, got.Report)
	return out
}

func writeAtomic(path string, data []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}
