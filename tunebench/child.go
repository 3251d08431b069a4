package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// childResult is what one child process reports to the orchestrator.
type childResult struct {
	// SetupS holds one sample per timed set-up (setup child), or the one
	// set-up the tune child needed.
	SetupS []float64 `json:"setup_s"`
	// TuneS is the wall time of the tuning call, set-up excluded.
	TuneS     float64  `json:"tune_s,omitempty"`
	PeakRSSMB float64  `json:"peak_rss_mb,omitempty"`
	Outcome   *outcome `json:"outcome,omitempty"`
	// Layers is the traced run's per-layer report.
	Layers *layerReport `json:"layers,omitempty"`
}

func childMain(mode string, w *workloadDef, seed int64, seconds time.Duration) (*childResult, error) {
	switch mode {
	case "setup":
		// A run times setupReps set-ups in all, shared out over the set-up
		// children it starts before its sessions.
		n := w.sessionsPerRun(seconds)
		return childSetup(w, seed, (w.setupReps+n-1)/n)
	case "tune":
		return childTune(w, seed)
	case "trace":
		return childTrace(w, seed)
	}
	return nil, fmt.Errorf("unknown child mode %q", mode)
}

// childSetup times reps fresh set-ups, each sample the mean of
// w.setupBatch back-to-back set-ups. Every sample starts from a collected
// heap so one sample's garbage does not slow the next.
func childSetup(w *workloadDef, seed int64, reps int) (*childResult, error) {
	res := &childResult{}
	insts := make([]instance, w.setupBatch)
	for r := 0; r < reps; r++ {
		runtime.GC()
		start := time.Now()
		for b := range insts {
			inst, err := w.prepare(seed, nil)
			if err != nil {
				return nil, err
			}
			insts[b] = inst
		}
		took := time.Since(start)
		for _, inst := range insts {
			inst.close()
		}
		res.SetupS = append(res.SetupS, took.Seconds()/float64(len(insts)))
	}
	return res, nil
}

// childTune runs one untraced tuning and reports its wall time, peak
// resident set and outcome.
func childTune(w *workloadDef, seed int64) (*childResult, error) {
	start := time.Now()
	inst, err := w.prepare(seed, nil)
	if err != nil {
		return nil, err
	}
	defer inst.close()
	setup := time.Since(start)
	start = time.Now()
	if err := inst.tune(nil); err != nil {
		return nil, err
	}
	tuneS := time.Since(start).Seconds()
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	out, err := inst.finish()
	if err != nil {
		return nil, err
	}
	return &childResult{SetupS: []float64{setup.Seconds()}, TuneS: tuneS, PeakRSSMB: rss, Outcome: out}, nil
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0, fmt.Errorf("parsing VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
