package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"

	"github.com/hunter-cdb/hunter/internal/cloud"
	"github.com/hunter-cdb/hunter/internal/fleet"
	"github.com/hunter-cdb/hunter/internal/ga"
	"github.com/hunter-cdb/hunter/internal/knob"
	hmetrics "github.com/hunter-cdb/hunter/internal/metrics"
	"github.com/hunter-cdb/hunter/internal/ml/ddpg"
	"github.com/hunter-cdb/hunter/internal/ml/pca"
	"github.com/hunter-cdb/hunter/internal/ml/rf"
	"github.com/hunter-cdb/hunter/internal/parallel"
	"github.com/hunter-cdb/hunter/internal/sim"
	"github.com/hunter-cdb/hunter/internal/simdb"
	"github.com/hunter-cdb/hunter/internal/tuner"
	"github.com/hunter-cdb/hunter/internal/tuners/gatuner"
	"github.com/hunter-cdb/hunter/internal/workload"
)

// layerDef is one per-layer metric of the traced run.
type layerDef struct{ name, unit, better string }

// perLayer lists the traced run's metrics in report order. A timing is
// reported as its median, its tail (the highest of tailLevels with at
// least ten samples beyond it, the median below twenty samples) and its
// sample count. Layers a workload does not exercise, or whose work is not
// observable from outside on it, read 0.
var perLayer = []layerDef{
	{"workload.build_ms", "ms", "lower"},
	{"workload.builds", "count", "higher"},
	{"tuner.session_setup_ms", "ms", "lower"},
	{"tuner.session_setups", "count", "higher"},
	{"tuner.wave_ms_p50", "ms", "lower"},
	{"tuner.wave_ms_tail", "ms", "lower"},
	{"tuner.waves", "count", "higher"},
	{"tuner.steps", "count", "higher"},
	{"tuner.boot_fail_share", "ratio", "lower"},
	{"tuner.dup_config_share", "ratio", "lower"},
	{"tuner.rec_time_vh", "h", "lower"},
	{"tuner.remeasured_fitness", "ratio", "higher"},
	{"simdb.run_ms_p50", "ms", "lower"},
	{"simdb.run_ms_tail", "ms", "lower"},
	{"simdb.runs_replayed", "count", "higher"},
	{"simdb.allocs_per_run", "count", "lower"},
	{"simdb.cpu_share", "ratio", "lower"},
	{"ga.ask_tell_ms_p50", "ms", "lower"},
	{"ga.ask_tell_ms_tail", "ms", "lower"},
	{"ga.generations", "count", "higher"},
	{"core.sample_factory_s", "s", "lower"},
	{"core.space_optimizer_s", "s", "lower"},
	{"core.recommender_s", "s", "lower"},
	{"ml.ddpg_train_step_ms_p50", "ms", "lower"},
	{"ml.ddpg_train_step_ms_tail", "ms", "lower"},
	{"ml.ddpg_train_steps", "count", "lower"},
	{"ml.ddpg_cpu_share", "ratio", "lower"},
	{"ml.rf_train_ms", "ms", "lower"},
	{"ml.rf_fits", "count", "lower"},
	{"ml.pca_fit_ms", "ms", "lower"},
	{"ml.pca_fits", "count", "lower"},
	{"parallel.idle_share", "ratio", "lower"},
	{"runtime.cores_used", "count", "higher"},
	{"runtime.gc_cpu_share", "ratio", "lower"},
	{"runtime.alloc_mb_per_step", "MB", "lower"},
	{"safety.canary_waves", "count", "lower"},
	{"safety.monitor_probes", "count", "lower"},
	{"safety.rollbacks", "count", "lower"},
	{"safety.block_share", "ratio", "lower"},
	{"fleet.round_s_p50", "s", "lower"},
	{"fleet.round_s_max", "s", "lower"},
	{"fleet.rounds", "count", "higher"},
	{"fleet.barrier_idle_share", "ratio", "lower"},
	{"fleet.reuse_hit_rate", "ratio", "higher"},
	{"telemetry.overhead", "ratio", "lower"},
	{"self.unattributed_share", "ratio", "lower"},
	{"self.workload_share", "ratio", "lower"},
	{"self.tuner_share", "ratio", "lower"},
	{"self.gatuner_share", "ratio", "lower"},
	{"self.core_share", "ratio", "lower"},
	{"self.fleet_share", "ratio", "lower"},
}

// layerReport is what the traced child reports.
type layerReport struct {
	Metrics map[string]float64 `json:"metrics"`
	// Timings keeps the summaries behind the timing metrics, for the
	// printed table (tail percentile and sample count).
	Timings map[string]timing `json:"timings"`
	Self    []selfRow         `json:"self"`
	TracedS float64           `json:"traced_s"`
	Spans   string            `json:"spans"`
	// runMS are the replayed Engine.Run times.
	runMS []float64
}

func (lr *layerReport) set(name string, v float64) { lr.Metrics[name] = v }

// setTiming records a timing's median, tail and count under the names
// name+"_p50"/"_tail" (or name alone when tailName is empty) and count.
func (lr *layerReport) setTiming(name string, ms []float64, p50Name, tailName, countName string) {
	t := summarize(ms)
	lr.Timings[name] = t
	lr.set(p50Name, t.P50)
	if tailName != "" {
		lr.set(tailName, t.Tail)
	}
	if countName != "" {
		lr.set(countName, float64(t.N))
	}
}

// selfRow is one module's line of the self-time table.
type selfRow struct {
	Module string  `json:"module"`
	SelfS  float64 `json:"self_s"`
	Share  float64 `json:"share"`
	Spans  int     `json:"spans"`
}

// procSample is the process-wide counters the traced run differences.
type procSample struct {
	wall     time.Time
	cpu      time.Duration
	par      parallel.StatsSnapshot
	gcCPU    float64
	totalCPU float64
	allocB   float64
}

var runtimeSamples = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	return s
}

func sampleValue(v metrics.Value) float64 {
	switch v.Kind() {
	case metrics.KindFloat64:
		return v.Float64()
	case metrics.KindUint64:
		return float64(v.Uint64())
	}
	return 0
}

func sampleProcess() procSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	rt := readRuntime()
	return procSample{
		wall:     time.Now(),
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		par:      parallel.Stats(),
		gcCPU:    sampleValue(rt[0].Value),
		totalCPU: sampleValue(rt[1].Value),
		allocB:   sampleValue(rt[2].Value),
	}
}

// childTrace is the traced run: the same set-up and tuning as childTune
// with the program's observation points attached and the benchmark's
// spans recorded, then the replays, all after the traced wall.
func childTrace(w *workloadDef, seed int64) (*childResult, error) {
	tr := newTracer(fmt.Sprintf("%s-%d-%d", w.name, seed, time.Now().UnixNano()))
	root := tr.begin("bench.run")
	setupStart := time.Now()
	inst, err := w.prepare(seed, tr)
	if err != nil {
		return nil, err
	}
	defer inst.close()
	setup := time.Since(setupStart)
	before := sampleProcess()
	tuneID := len(tr.spans)
	if err := inst.tune(tr); err != nil {
		return nil, err
	}
	after := sampleProcess()
	tr.end(root)
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	out, err := inst.finish()
	if err != nil {
		return nil, err
	}
	lr := &layerReport{Metrics: map[string]float64{}, Timings: map[string]timing{}}
	for _, d := range perLayer {
		lr.Metrics[d.name] = 0
	}
	tuneS := after.wall.Sub(before.wall).Seconds()
	cpuS := (after.cpu - before.cpu).Seconds()
	lr.set("runtime.cores_used", cpuS/tuneS)
	if d := after.totalCPU - before.totalCPU; d > 0 {
		lr.set("runtime.gc_cpu_share", (after.gcCPU-before.gcCPU)/d)
	}
	if out.Steps > 0 {
		lr.set("runtime.alloc_mb_per_step", (after.allocB-before.allocB)/1e6/float64(out.Steps))
	}
	if span := after.par.SpanNs - before.par.SpanNs; span > 0 {
		lr.set("parallel.idle_share", float64(span-(after.par.BusyNs-before.par.BusyNs))/float64(span))
	}
	lr.set("tuner.steps", float64(out.Steps))
	lr.set("tuner.rec_time_vh", out.Det.RecTimeVH)
	lr.set("tuner.remeasured_fitness", out.Det.RemeasuredFitness)
	if sr := out.Safety; sr != nil {
		lr.set("safety.canary_waves", float64(sr.Canaries))
		lr.set("safety.monitor_probes", float64(sr.MonitorProbes))
		lr.set("safety.rollbacks", float64(sr.Rollbacks))
		if sr.Canaries > 0 {
			lr.set("safety.block_share", float64(sr.Blocks)/float64(sr.Canaries))
		}
	}
	lr.set("fleet.reuse_hit_rate", out.ReuseHitRate)

	rec, err := parseRecorder(tr)
	if err != nil {
		return nil, err
	}
	fleetLayers(tr, rec, lr)
	statusLayers(tr, tr.spans[tuneID], lr)
	if err := inst.replay(lr, rec); err != nil {
		return nil, err
	}
	mlCounts(rec, lr)
	if cpuS > 0 {
		// Steps whose configuration did not boot ran no stress test.
		runs := lr.Metrics["tuner.steps"] * (1 - lr.Metrics["tuner.boot_fail_share"])
		lr.set("simdb.cpu_share", runs*mean(lr.runMS)/1e3/cpuS)
		lr.set("ml.ddpg_cpu_share", lr.Metrics["ml.ddpg_train_steps"]*lr.Metrics["ml.ddpg_train_step_ms_p50"]/1e3/cpuS)
	}
	lr.TracedS = (tr.spans[0].End - tr.spans[0].Start).Seconds()
	lr.Self = selfTable(tr)
	for _, row := range lr.Self {
		name := "self." + row.Module + "_share"
		if _, ok := lr.Metrics[name]; ok {
			lr.set(name, row.Share)
		}
	}
	if lr.Spans, err = writeSpans(tr); err != nil {
		return nil, err
	}
	return &childResult{SetupS: []float64{setup.Seconds()}, TuneS: tuneS, PeakRSSMB: rss, Outcome: out, Layers: lr}, nil
}

// recSpan is one span of the program's telemetry trace.
type recSpan struct {
	Type   string             `json:"type"`
	Cat    string             `json:"cat"`
	Name   string             `json:"name"`
	VStart float64            `json:"v_start_us"`
	VDur   float64            `json:"v_dur_us"`
	WStart float64            `json:"w_start_us"`
	Attrs  map[string]float64 `json:"attrs"`
	// Wall is WStart on the tracer's clock.
	Wall time.Duration `json:"-"`
}

// parseRecorder reads back the program's telemetry trace, with wall
// offsets moved onto the tracer's clock.
func parseRecorder(tr *tracer) ([]recSpan, error) {
	var buf bytes.Buffer
	if err := tr.rec.WriteTrace(&buf); err != nil {
		return nil, err
	}
	var out []recSpan
	var offset time.Duration
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var line struct {
			recSpan
			WallStart string `json:"wall_start"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return nil, fmt.Errorf("telemetry trace: %w", err)
		}
		switch line.Type {
		case "header":
			start, err := time.Parse(time.RFC3339Nano, line.WallStart)
			if err != nil {
				return nil, fmt.Errorf("telemetry trace header: %w", err)
			}
			offset = start.Sub(tr.origin)
		case "span":
			s := line.recSpan
			s.Wall = offset + time.Duration(s.WStart*1e3)
			out = append(out, s)
		}
	}
	return out, sc.Err()
}

// statusLayers turns the StatusSink's publishes into spans — per session a
// span per algorithm phase and per stress wave, and for fleet tenants a
// session span — and derives the wave timings and the core phase totals.
// A wave's span runs from the session's previous publish to the wave's, so
// on HUNTER sessions it includes the tuner's work between waves.
func statusLayers(tr *tracer, tune span, lr *layerReport) {
	byKey := map[string][]statusEvent{}
	var keys []string
	tr.status.mu.Lock()
	for _, ev := range tr.status.events {
		if ev.At > tune.End {
			continue // published after the traced wall (Close)
		}
		if _, ok := byKey[ev.Key]; !ok {
			keys = append(keys, ev.Key)
		}
		byKey[ev.Key] = append(byKey[ev.Key], ev)
	}
	tr.status.mu.Unlock()
	rounds := childrenNamed(tr, tune.ID, "fleet.round")
	var waveMS []float64
	phaseS := map[string]float64{}
	for _, key := range keys {
		evs := byKey[key]
		parent := tune.ID
		if len(rounds) > 0 {
			// A fleet tenant: its session span runs from its first publish
			// (session ready) to its last, inside the round it ran in.
			parent = tr.add(roundAt(tr, rounds, evs[0].At, tune.ID), "tuner.session", evs[0].At, evs[len(evs)-1].At)
		}
		phaseID, phaseName := -1, ""
		for i, ev := range evs {
			if ev.Phase != phaseName {
				if phaseID >= 0 {
					tr.spans[phaseID].End = ev.At
					phaseS[phaseName] += (tr.spans[phaseID].End - tr.spans[phaseID].Start).Seconds()
				}
				phaseID, phaseName = -1, ev.Phase
				if ev.Phase != "" {
					phaseID = tr.add(parent, "core."+ev.Phase, ev.At, ev.At)
				}
			}
			if i == 0 || ev.Wave <= evs[i-1].Wave {
				continue
			}
			p := parent
			if phaseID >= 0 && evs[i-1].At >= tr.spans[phaseID].Start {
				p = phaseID
			}
			start := max(evs[i-1].At, tr.spans[p].Start)
			tr.add(p, "tuner.wave", start, ev.At)
			waveMS = append(waveMS, float64(ev.At-start)/1e6)
		}
		if phaseID >= 0 {
			tr.spans[phaseID].End = evs[len(evs)-1].At
			phaseS[phaseName] += (tr.spans[phaseID].End - tr.spans[phaseID].Start).Seconds()
		}
	}
	lr.setTiming("tuner.wave_ms", waveMS, "tuner.wave_ms_p50", "tuner.wave_ms_tail", "tuner.waves")
	lr.set("core.sample_factory_s", phaseS["sample_factory"])
	lr.set("core.space_optimizer_s", phaseS["space_optimizer"]+phaseS["pca_fit"]+phaseS["rf_sift"])
	lr.set("core.recommender_s", phaseS["ddpg_warm_start"]+phaseS["ddpg_explore"])
}

func childrenNamed(tr *tracer, parent int, name string) []int {
	var out []int
	for _, sp := range tr.spans {
		if sp.Parent == parent && sp.Name == name {
			out = append(out, sp.ID)
		}
	}
	return out
}

// roundAt returns the round span containing t, or fallback.
func roundAt(tr *tracer, rounds []int, t time.Duration, fallback int) int {
	for _, id := range rounds {
		if t >= tr.spans[id].Start && t <= tr.spans[id].End {
			return id
		}
	}
	return fallback
}

// fleetLayers rebuilds the fleet's rounds from its recorder's
// round_complete events and measures how long workers sat idle at each
// round barrier: a round waits for its slowest tenant, and the workers
// whose last tenant finished earlier wait with it.
func fleetLayers(tr *tracer, rec []recSpan, lr *layerReport) {
	runID := -1
	for _, sp := range tr.spans {
		if sp.Name == "fleet.Run" {
			runID = sp.ID
		}
	}
	if runID < 0 {
		return
	}
	start := tr.spans[runID].Start
	var roundS []float64
	var ids []int
	for _, s := range rec {
		if s.Cat == "event" && s.Name == "round_complete" {
			ids = append(ids, tr.add(runID, "fleet.round", start, s.Wall))
			roundS = append(roundS, (s.Wall - start).Seconds())
			start = s.Wall
		}
	}
	if len(roundS) == 0 {
		return
	}
	lr.setTiming("fleet.round_s", roundS, "fleet.round_s_p50", "", "fleet.rounds")
	lr.set("fleet.round_s_max", sorted(roundS)[len(roundS)-1])

	// Tenant finish times: the done publish each session makes on Close.
	tr.status.mu.Lock()
	var done []time.Duration
	for _, ev := range tr.status.events {
		if ev.Done {
			done = append(done, ev.At)
		}
	}
	tr.status.mu.Unlock()
	workers := parallel.Workers()
	var idle, capacity time.Duration
	for _, id := range ids {
		sp := tr.spans[id]
		var in []time.Duration
		for _, t := range done {
			if t > sp.Start && t <= sp.End {
				in = append(in, t)
			}
		}
		sort.Slice(in, func(i, j int) bool { return in[i] > in[j] })
		k := min(workers, len(in))
		for _, t := range in[:k] {
			idle += sp.End - t
		}
		capacity += time.Duration(k) * (sp.End - sp.Start)
	}
	if capacity > 0 {
		lr.set("fleet.barrier_idle_share", float64(idle)/float64(capacity))
	}
}

// mlCounts reads the ML work counts from the program's recorder: the
// DDPG warm start's train_steps attribute, plus the exploration's training
// per recorded stress wave, which the recommender runs at 2 per sample +
// 2 per wave (core/recommender.go).
func mlCounts(rec []recSpan, lr *layerReport) {
	var steps float64
	var explore [][2]float64
	for _, s := range rec {
		switch {
		case s.Cat == "phase" && s.Name == "ddpg_warm_start":
			steps += s.Attrs["train_steps"]
		case s.Cat == "phase" && s.Name == "ddpg_explore":
			explore = append(explore, [2]float64{s.VStart, s.VStart + s.VDur})
		}
	}
	for _, s := range rec {
		if s.Cat != "step" || s.Name != "stress_wave" {
			continue
		}
		end := s.VStart + s.VDur
		for _, iv := range explore {
			if end > iv[0] && end <= iv[1] {
				steps += 2*s.Attrs["recorded"] + 2
				break
			}
		}
	}
	lr.set("ml.ddpg_train_steps", steps)
}

// replaySetup times fresh builds of the workload and fresh session
// set-ups, n each.
func replaySetup(lr *layerReport, n int, build func() (*workload.Profile, error), req func(i int) (tuner.Request, error)) error {
	var buildMS, setupMS []float64
	for i := 0; i < n; i++ {
		runtime.GC()
		start := time.Now()
		if _, err := build(); err != nil {
			return err
		}
		buildMS = append(buildMS, ms(time.Since(start)))
	}
	for i := 0; i < n; i++ {
		r, err := req(i)
		if err != nil {
			return err
		}
		runtime.GC()
		start := time.Now()
		s, err := tuner.NewSession(r)
		if err != nil {
			return err
		}
		setupMS = append(setupMS, ms(time.Since(start)))
		s.Close()
	}
	lr.setTiming("workload.build_ms", buildMS, "workload.build_ms", "", "workload.builds")
	lr.setTiming("tuner.session_setup_ms", setupMS, "tuner.session_setup_ms", "", "tuner.session_setups")
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// replayRuns is the most pooled configurations the simdb replay
// re-runs, evenly spaced over the run.
const replayRuns = 150

// replay times the modules the session called internally: set-up,
// simdb's Engine.Run on the run's evaluated configurations, the GA's
// ask/tell on its generations, and PCA, RF and DDPG at the session's
// shapes.
func (r *sessionRun) replay(lr *layerReport, rec []recSpan) error {
	s := r.s
	base := r.req
	err := replaySetup(lr, 5, r.build, func(int) (tuner.Request, error) {
		p, err := r.build()
		req := base
		req.Workload = p
		return req, err
	})
	if err != nil {
		return err
	}
	pool := s.Pool.All()
	sort.SliceStable(pool, func(i, j int) bool { return pool[i].Step < pool[j].Step })
	lr.set("tuner.boot_fail_share", bootFailShare(pool))
	lr.set("tuner.dup_config_share", dupConfigShare(pool))

	// simdb: re-run evenly spaced pooled configurations, each on the
	// workload that was in effect when it was measured, alternating over
	// one engine per clone as the waves did.
	drifts := s.ScheduledDrifts()
	profileAt := func(t time.Duration) *workload.Profile {
		p := base.Workload
		for _, d := range drifts {
			if d.At < t {
				p = d.Profile
			}
		}
		return p
	}
	var cfgs []tuner.Sample
	for _, smp := range pool {
		if !smp.Perf.Failed {
			cfgs = append(cfgs, smp)
		}
	}
	cfgs = evenly(cfgs, replayRuns)
	engines := make([]*simdb.Engine, clonesPerSession)
	for i := range engines {
		if engines[i], err = simdb.NewEngine(base.Dialect, base.Type.Resources(), r.seed+int64(i)); err != nil {
			return err
		}
		if base.Eval != nil && base.Eval.WarmStateDeltas {
			engines[i].SetWarmDeltas(true)
		}
	}
	runs := make([]engineRun, len(cfgs))
	for i, smp := range cfgs {
		runs[i] = engineRun{engines[i%len(engines)], smp.Knobs, profileAt(smp.Time)}
	}
	if err := replayEngine(lr, runs); err != nil {
		return err
	}

	if r.tuneSpan == "gatuner.Tune" {
		if err := replayGA(lr, s, pool, r.seed); err != nil {
			return err
		}
	}
	return replayML(lr, rec, s, pool, r.seed)
}

// engineRun is one stress test to replay: a configuration on an engine.
type engineRun struct {
	e   *simdb.Engine
	cfg knob.Config
	p   *workload.Profile
}

// replayEngine deploys each configuration and times its Engine.Run,
// single-threaded, counting the run's heap allocations. A configuration
// that does not boot costs no run, as in the tuning.
func replayEngine(lr *layerReport, runs []engineRun) error {
	objs := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	var times []float64
	var allocs uint64
	runtime.GC()
	for _, r := range runs {
		if err := r.e.Configure(r.cfg); err != nil {
			continue
		}
		metrics.Read(objs)
		before := objs[0].Value.Uint64()
		start := time.Now()
		if _, _, err := r.e.Run(r.p); err != nil {
			return err
		}
		took := time.Since(start)
		metrics.Read(objs)
		allocs += objs[0].Value.Uint64() - before
		times = append(times, ms(took))
	}
	lr.runMS = times
	lr.setTiming("simdb.run_ms", times, "simdb.run_ms_p50", "simdb.run_ms_tail", "simdb.runs_replayed")
	if len(times) > 0 {
		lr.set("simdb.allocs_per_run", float64(allocs)/float64(len(times)))
	}
	return nil
}

// replayGA breeds the run's generations again: each Tell gets the pooled
// points and fitnesses of one generation, as gatuner's loop did.
func replayGA(lr *layerReport, s *tuner.Session, pool []tuner.Sample, seed int64) error {
	gt := gatuner.New()
	g, err := ga.New(ga.Config{Dim: s.Space.Dim(), PopSize: gt.PopSize, MutationProb: gt.MutationProb, Seed: seed})
	if err != nil {
		return err
	}
	var times []float64
	for lo := 0; lo+gt.PopSize <= len(pool); lo += gt.PopSize {
		gen := pool[lo : lo+gt.PopSize]
		pts := make([][]float64, len(gen))
		fit := make([]float64, len(gen))
		for i, smp := range gen {
			pts[i], fit[i] = smp.Point, s.Fitness(smp.Perf)
		}
		start := time.Now()
		g.Ask(gt.PopSize)
		if err := g.Tell(pts, fit); err != nil {
			return err
		}
		times = append(times, ms(time.Since(start)))
	}
	lr.setTiming("ga.ask_tell_ms", times, "ga.ask_tell_ms_p50", "ga.ask_tell_ms_tail", "ga.generations")
	return nil
}

// ddpgReplaySteps is how many DDPG train steps the replay times.
const ddpgReplaySteps = 200

// replayML fits PCA and RF on the pooled samples the session fitted them
// on, and trains a DDPG agent at the session's state and action shapes,
// as read from the program's recorder spans.
func replayML(lr *layerReport, rec []recSpan, s *tuner.Session, pool []tuner.Sample, seed int64) error {
	var valid []tuner.Sample
	for _, smp := range pool {
		if len(smp.State) == hmetrics.Count {
			valid = append(valid, smp)
		}
	}
	var pcaMS, rfMS []float64
	stateDim, actionDim := 0, 0
	for _, sp := range rec {
		if sp.Cat != "phase" {
			continue
		}
		switch sp.Name {
		case "pca_fit":
			n := min(int(sp.Attrs["rows"]), len(valid))
			rows := make([][]float64, n)
			for i := range rows {
				rows[i] = valid[i].State
			}
			start := time.Now()
			if _, err := pca.Fit(rows, 0.90, 0); err != nil {
				return err
			}
			pcaMS = append(pcaMS, ms(time.Since(start)))
		case "rf_sift":
			n := min(int(sp.Attrs["samples"]), len(valid))
			x := make([][]float64, n)
			y := make([]float64, n)
			for i := range x {
				x[i], y[i] = valid[i].Point, s.Fitness(valid[i].Perf)
			}
			start := time.Now()
			if _, err := rf.Train(x, y, rf.Options{Trees: int(sp.Attrs["trees"])}, sim.NewRNG(seed)); err != nil {
				return err
			}
			rfMS = append(rfMS, ms(time.Since(start)))
		case "space_optimizer":
			if stateDim == 0 {
				stateDim, actionDim = int(sp.Attrs["state_dim"]), int(sp.Attrs["space_dim"])
			}
		}
	}
	lr.setTiming("ml.pca_fit_ms", pcaMS, "ml.pca_fit_ms", "", "ml.pca_fits")
	lr.setTiming("ml.rf_train_ms", rfMS, "ml.rf_train_ms", "", "ml.rf_fits")
	if stateDim == 0 || actionDim == 0 {
		return nil
	}
	rewards := make([]float64, len(pool))
	for i, smp := range pool {
		rewards[i] = s.Fitness(smp.Perf)
	}
	return replayDDPG(lr, stateDim, actionDim, rewards, seed)
}

// replayDDPG times DDPG train steps at the given shapes, on a replay buffer
// holding one transition per reward. Train-step cost depends on the shapes
// and the batch size, not on the values, so states and actions are drawn
// at random.
func replayDDPG(lr *layerReport, stateDim, actionDim int, rewards []float64, seed int64) error {
	agent, err := ddpg.New(ddpg.Config{StateDim: stateDim, ActionDim: actionDim, Seed: seed})
	if err != nil {
		return err
	}
	rng := sim.NewRNG(seed)
	vec := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.Float64()
		}
		return v
	}
	for _, r := range rewards {
		agent.Observe(ddpg.Transition{State: vec(stateDim), Action: vec(actionDim), Reward: r, Next: vec(stateDim)})
	}
	var times []float64
	for i := 0; i < ddpgReplaySteps; i++ {
		start := time.Now()
		agent.TrainStep()
		times = append(times, ms(time.Since(start)))
	}
	lr.setTiming("ml.ddpg_train_step_ms", times, "ml.ddpg_train_step_ms_p50", "ml.ddpg_train_step_ms_tail", "")
	return nil
}

// replay times the fleet's set-ups and its tenants' stress tests: each
// finished tenant's best configuration on its own workload. The tenants'
// pools, models and per-session recorders are internal to the fleet.
func (r *fleetRun) replay(lr *layerReport, _ []recSpan) error {
	it, err := cloud.TypeByName("F")
	if err != nil {
		return err
	}
	err = replaySetup(lr, 8, func() (*workload.Profile, error) {
		_ = fleet.SyntheticTenants(fleetTenants, r.seed)
		return nil, nil
	}, func(i int) (tuner.Request, error) {
		t := r.tenants[i]
		d, p, err := tenantSetting(t.Signature())
		// The fleet narrows tenants to a fixed knob subset; the knob set
		// changes the search space, not provisioning or the default
		// stress test this times.
		return tuner.Request{Dialect: d, Type: it, Workload: p, Budget: t.Budget, Clones: t.Clones, Seed: t.Seed}, err
	})
	if err != nil {
		return err
	}
	var runs []engineRun
	for _, t := range r.rep.TenantResults {
		if t.Status != fleet.StatusDone {
			continue
		}
		d, p, err := tenantSetting(t.Signature)
		if err != nil {
			return err
		}
		e, err := simdb.NewEngine(d, it.Resources(), t.Seed)
		if err != nil {
			return err
		}
		for k := 0; k < 3; k++ {
			runs = append(runs, engineRun{e, t.BestKnobs, p})
		}
	}
	if err := replayEngine(lr, runs); err != nil {
		return err
	}
	rewards := make([]float64, 2*ddpgBatch)
	for i := range rewards {
		rewards[i] = r.rep.TenantResults[i%len(r.rep.TenantResults)].Fitness
	}
	return replayDDPG(lr, hmetrics.Count, fleetActionDim, rewards, r.seed)
}

// Fleet tenants run DDPG with PCA and RF off, so the state is the full
// metric vector, and the action is the fleet's fixed per-dialect subset of
// 16 knobs (internal/fleet/tenants.go). ddpgBatch is the agent's default
// minibatch.
const (
	fleetActionDim = 16
	ddpgBatch      = 32
)

// bootFailShare is the share of pooled samples whose configuration did
// not boot.
func bootFailShare(pool []tuner.Sample) float64 {
	failed := 0
	for _, smp := range pool {
		if smp.Perf.Failed {
			failed++
		}
	}
	return failureShare(len(pool), failed)
}

// dupConfigShare is the share of pooled samples that repeat a
// configuration already tested in the same wave (samples of one wave
// share their completion time).
func dupConfigShare(pool []tuner.Sample) float64 {
	waves := map[time.Duration]map[string]bool{}
	dups := 0
	for _, smp := range pool {
		seen := waves[smp.Time]
		if seen == nil {
			seen = map[string]bool{}
			waves[smp.Time] = seen
		}
		k := smp.Knobs.Key()
		if seen[k] {
			dups++
		}
		seen[k] = true
	}
	return failureShare(len(pool), dups)
}

// evenly picks at most n elements spread evenly over xs.
func evenly[T any](xs []T, n int) []T {
	if len(xs) <= n {
		return xs
	}
	out := make([]T, n)
	for i := range out {
		out[i] = xs[i*len(xs)/n]
	}
	return out
}

// selfTable sums span self times per module (the span name's prefix);
// the root's self time is the unattributed row. With parallel children
// (fleet tenants) the module rows add up to worker time, which can exceed
// the wall.
func selfTable(tr *tracer) []selfRow {
	self := selfTimes(tr.spans)
	wall := (tr.spans[0].End - tr.spans[0].Start).Seconds()
	rows := map[string]*selfRow{}
	for i, sp := range tr.spans {
		mod, _, _ := strings.Cut(sp.Name, ".")
		if i == 0 {
			mod = "unattributed"
		}
		row := rows[mod]
		if row == nil {
			row = &selfRow{Module: mod}
			rows[mod] = row
		}
		row.SelfS += self[i].Seconds()
		row.Spans++
	}
	var out []selfRow
	for _, row := range rows {
		row.Share = row.SelfS / wall
		out = append(out, *row)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfS > out[j].SelfS })
	return out
}

// writeSpans writes the benchmark's spans, one JSON line each, all
// carrying the run id.
func writeSpans(tr *tracer) (string, error) {
	path := filepath.Join(stateDir, "traces", tr.runID+".jsonl")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return "", err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, sp := range tr.spans {
		line := struct {
			RunID string `json:"run_id"`
			span
		}{tr.runID, sp}
		if err := enc.Encode(line); err != nil {
			return "", err
		}
	}
	return path, os.WriteFile(path, buf.Bytes(), 0o644)
}
