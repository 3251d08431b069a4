// Command hunter-tune runs one HUNTER tuning session against a simulated
// cloud database instance and prints the recommended configuration.
//
//	hunter-tune -db mysql -workload tpcc -budget 24h -clones 5
//	hunter-tune -workload sysbench-rw -fix innodb_adaptive_hash_index=0 \
//	    -range innodb_buffer_pool_size=1073741824:17179869184 -alpha 0.7
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/hunter-cdb/hunter"
)

// multiFlag collects repeated -fix / -range options.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

func main() {
	var (
		db       = flag.String("db", "mysql", "database dialect: mysql | postgres")
		wl       = flag.String("workload", "tpcc", "workload: tpcc | sysbench-ro | sysbench-wo | sysbench-rw | production")
		budget   = flag.Duration("budget", 24*time.Hour, "virtual tuning time budget")
		clones   = flag.Int("clones", 1, "number of cloned CDB instances")
		instance = flag.String("instance", "F", "instance type A..H")
		seed     = flag.Int64("seed", 1, "random seed")
		alpha    = flag.Float64("alpha", 0.5, "throughput/latency preference in [0,1]")
		outFile  = flag.String("out", "", "write the recommended configuration to this file (my.cnf / postgresql.conf syntax)")
		verbose  = flag.Bool("v", false, "stream structured session logs to stderr")
		traceOut = flag.String("trace", "", "write the span trace to this file (.json = Chrome trace_event format, else JSONL)")
		metrics  = flag.String("metrics-out", "", "write the counter/gauge exposition to this file")
		report   = flag.String("report", "", "write the run report (JSON) to this file")
		ckptDir  = flag.String("checkpoint-dir", "", "directory for durable run snapshots (enables checkpointing)")
		ckptEvry = flag.Int("checkpoint-every", 1, "stress waves between snapshots")
		resume   = flag.Bool("resume", false, "continue the run from the snapshot in -checkpoint-dir")
		stopAt   = flag.Int("stop-after-waves", 0, "checkpoint and stop after this many waves (interruption testing)")
		chProf   = flag.String("chaos-profile", "off", "fault-injection profile: off | mild | flaky | catastrophic")
		chSeed   = flag.Int64("chaos-seed", 1, "fault-plan seed (only meaningful with -chaos-profile)")
		compress = flag.Bool("compress", false, "evaluation cost collapse: compressed workload kernel + wave dedup + warm-state deltas")
		serve    = flag.String("serve", "", "serve the live introspection plane (/metrics /status /sessions /events) on this address, e.g. 127.0.0.1:8377")
		linger   = flag.Duration("serve-linger", 0, "keep the introspection server up this long after the run finishes (for scraping final state)")
		online   = flag.Bool("online", false, "deploy improving candidates to the serving instance during the run (naive online tuning)")
		guard    = flag.Bool("guardrails", false, "arm the online safety loop: canary gate, trust region, SLO monitor, automatic rollback (implies -online)")
		sloP99   = flag.Duration("slo-p99", 0, "p99 latency SLO ceiling for the deployed config, e.g. 80ms (0 = off)")
		sloTPS   = flag.Float64("slo-floor-tps", 0, "throughput SLO floor for the deployed config (0 = off)")
		gMargin  = flag.Float64("guard-margin", 0, "fraction below the rolling baseline a canary may sit before it is blocked (0 = default 0.05)")
		dStream  = flag.String("drift-stream", "", "continuous workload drift stream: "+strings.Join(hunter.DriftStreamKinds(), " | "))
		dPeriod  = flag.Duration("drift-period", 0, "drift stream period (default 12h)")
		dEvents  = flag.Int("drift-events", 0, "drift events per stream period (default 6)")
		dSeed    = flag.Int64("drift-seed", 0, "drift stream seed (default: -seed)")
		fixes    multiFlag
		ranges   multiFlag
	)
	flag.Var(&fixes, "fix", "fix a knob: name=value (repeatable)")
	flag.Var(&ranges, "range", "restrict a knob: name=min:max (repeatable)")
	flag.Parse()

	req := hunter.Request{
		Budget: *budget,
		Clones: *clones,
		Seed:   *seed,
	}
	if *verbose {
		req.Logger = slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelInfo}))
	}
	if *traceOut != "" || *metrics != "" || *report != "" || *serve != "" {
		req.Recorder = hunter.NewRecorder()
	}
	var obsrv *hunter.IntrospectionServer
	if *serve != "" {
		reg := hunter.NewStatusRegistry()
		req.Status = reg
		obsrv = hunter.NewIntrospectionServer(req.Recorder, reg)
		addr, err := obsrv.Start(*serve)
		if err != nil {
			fatalf("introspection server: %v", err)
		}
		// Banner goes to stderr: stdout stays byte-identical with -serve off.
		fmt.Fprintf(os.Stderr, "introspection plane on http://%s (/metrics /status /sessions /events)\n", addr)
		defer func() {
			if *linger > 0 {
				fmt.Fprintf(os.Stderr, "introspection server lingering %v on http://%s\n", *linger, addr)
				time.Sleep(*linger)
			}
			obsrv.Close()
		}()
	}
	if *ckptDir != "" || *stopAt > 0 {
		req.Checkpoint = &hunter.CheckpointPolicy{
			Dir:            *ckptDir,
			Every:          *ckptEvry,
			StopAfterWaves: *stopAt,
		}
	}
	if *resume && *ckptDir == "" {
		fatalf("-resume needs -checkpoint-dir")
	}
	profile, err := hunter.ChaosProfileByName(*chProf)
	if err != nil {
		fatalf("%v", err)
	}
	if profile.Enabled() {
		req.Chaos = &hunter.ChaosPlan{Seed: *chSeed, Profile: profile}
	}
	// Any guardrail-shaped flag arms the full safety loop; -online alone
	// runs the naive deploy-as-you-go baseline without the guard. A flag
	// set to an invalid value (negative, NaN) arms the loop too, so the
	// guard's validation rejects it instead of the flag being ignored.
	guarded := *guard || *sloP99 != 0 || *sloTPS != 0 || *gMargin != 0
	if guarded || *online {
		req.Safety = &hunter.SafetyOptions{
			Guardrails:  guarded,
			Margin:      *gMargin,
			SLOP99Ms:    float64(*sloP99) / float64(time.Millisecond),
			SLOFloorTPS: *sloTPS,
		}
	}
	switch *db {
	case "mysql":
		req.Dialect = hunter.MySQL
	case "postgres", "postgresql":
		req.Dialect = hunter.Postgres
	default:
		fatalf("unknown dialect %q", *db)
	}
	switch *wl {
	case "tpcc":
		req.Workload = hunter.TPCC()
	case "sysbench-ro":
		req.Workload = hunter.SysbenchRO()
	case "sysbench-wo":
		req.Workload = hunter.SysbenchWO()
	case "sysbench-rw":
		req.Workload = hunter.SysbenchRW()
	case "production":
		req.Workload = hunter.Production()
	default:
		fatalf("unknown workload %q", *wl)
	}
	if *compress {
		// Production compresses into a clustered kernel; the synthetic
		// benchmarks keep their (already compact) mix and just measure at
		// a fraction of the full stress-test effort.
		if *wl == "production" {
			req.Workload = hunter.CompressedProduction()
		} else {
			req.Workload = hunter.CompressWorkload(req.Workload, 0.25)
		}
		req.Eval = &hunter.EvalOptions{DedupWaves: true, WarmStateDeltas: true}
	}
	if *dStream != "" {
		// The stream expands against the workload actually tuned, i.e.
		// after the -compress substitution.
		streamSeed := *dSeed
		if streamSeed == 0 {
			streamSeed = *seed
		}
		req.Drifts, err = hunter.GenerateDriftStream(req.Workload, hunter.DriftStream{
			Kind:   *dStream,
			Period: *dPeriod,
			Events: *dEvents,
			Seed:   streamSeed,
		})
		if err != nil {
			fatalf("%v", err)
		}
	}
	it, err := hunter.InstanceTypeByName(*instance)
	if err != nil {
		fatalf("%v", err)
	}
	req.Type = it

	rules := hunter.NewRules().SetAlpha(*alpha)
	for _, f := range fixes {
		name, val, ok := strings.Cut(f, "=")
		if !ok {
			fatalf("bad -fix %q, want name=value", f)
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			fatalf("bad -fix value %q: %v", val, err)
		}
		rules.Fix(name, v)
	}
	for _, r := range ranges {
		name, span, ok := strings.Cut(r, "=")
		if !ok {
			fatalf("bad -range %q, want name=min:max", r)
		}
		loS, hiS, ok := strings.Cut(span, ":")
		if !ok {
			fatalf("bad -range span %q, want min:max", span)
		}
		lo, err1 := strconv.ParseFloat(loS, 64)
		hi, err2 := strconv.ParseFloat(hiS, 64)
		if err1 != nil || err2 != nil {
			fatalf("bad -range bounds %q", span)
		}
		rules.Range(name, lo, hi)
	}
	req.Rules = rules

	// Ctrl-C stops the run at the next stress-test boundary; the best
	// configuration found so far is still deployed and reported.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stopSignals()

	var res *hunter.Result
	if *resume {
		wave, clock, perr := hunter.PeekCheckpoint(*ckptDir)
		if perr != nil {
			fatalf("%v", perr)
		}
		fmt.Printf("resuming %s / %s from wave %d (%.1f h on the clock)...\n",
			*db, req.Workload.Name, wave, clock.Hours())
		res, err = hunter.ResumeContext(ctx, req)
	} else {
		fmt.Printf("tuning %s / %s on type %s, budget %v, %d clone(s)...\n",
			*db, req.Workload.Name, it.Name, *budget, *clones)
		res, err = hunter.TuneContext(ctx, req)
	}
	// Export telemetry before failing so a broken run still leaves a trace.
	if eerr := req.Recorder.WriteFiles(*traceOut, *metrics, *report); eerr != nil {
		fatalf("%v", eerr)
	}
	if errors.Is(err, hunter.ErrStopRequested) {
		reportCheckpoint(os.Stdout, *ckptDir, "run stopped at the requested wave")
		return
	}
	if errors.Is(err, hunter.ErrFleetLost) {
		// Total fleet loss: the run degrades to the baseline configuration
		// instead of failing outright.
		fmt.Println("\nWARNING: entire clone fleet lost to faults — result falls back to the baseline configuration")
		err = nil
	}
	if err != nil {
		fatalf("%v", err)
	}
	if ctx.Err() != nil && *ckptDir != "" {
		reportCheckpoint(os.Stderr, *ckptDir, "interrupted — partial result below")
	}

	fmt.Printf("\ndefault:     %8.0f txn/s  p95 %6.1f ms\n",
		res.DefaultPerf.ThroughputTPS, res.DefaultPerf.P95LatencyMs)
	fmt.Printf("recommended: %8.0f txn/s  p95 %6.1f ms  (fitness %.3f)\n",
		res.BestPerf.ThroughputTPS, res.BestPerf.P95LatencyMs, res.Fitness)
	fmt.Printf("steps: %d   recommendation time: %.1f h of %.1f h used\n",
		res.Steps, res.RecommendationTime.Hours(), res.Elapsed.Hours())
	fmt.Printf("compressed state: %d dims   key knobs: %d\n\n",
		res.CompressedStateDim, len(res.TopKnobs))
	if res.Resilience != nil {
		fmt.Print(res.Resilience.Summary(), "\n")
	}
	if res.Safety != nil {
		fmt.Print(res.Safety.Summary(), "\n")
	}

	if *outFile != "" {
		f, err := os.Create(*outFile)
		if err != nil {
			fatalf("%v", err)
		}
		if err := hunter.WriteConfigFile(f, req.Dialect, res.Best); err != nil {
			fatalf("%v", err)
		}
		if err := f.Close(); err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("full configuration written to %s\n\n", *outFile)
	}

	fmt.Println("recommended values for the sifted key knobs:")
	top := append([]string(nil), res.TopKnobs...)
	sort.Strings(top)
	for _, name := range top {
		fmt.Printf("  %-40s = %s\n", name, hunter.FormatKnob(req.Dialect, name, res.Best[name]))
	}
}

// reportCheckpoint prints where the run's durable snapshot lives and the
// exact command that continues it.
func reportCheckpoint(w io.Writer, dir, why string) {
	if dir == "" {
		fmt.Fprintf(w, "\n%s (no -checkpoint-dir, nothing saved)\n", why)
		return
	}
	wave, clock, err := hunter.PeekCheckpoint(dir)
	if err != nil {
		fmt.Fprintf(w, "\n%s; checkpoint unreadable: %v\n", why, err)
		return
	}
	fmt.Fprintf(w, "\n%s\ncheckpoint: %s  (wave %d, %.1f h on the virtual clock)\n",
		why, filepath.Join(dir, hunter.CheckpointFileName), wave, clock.Hours())
	fmt.Fprintf(w, "continue with:  %s -resume -checkpoint-dir %s  <same tuning flags>\n",
		os.Args[0], dir)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
