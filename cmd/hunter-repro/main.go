// Command hunter-repro regenerates the paper's tables and figures from the
// simulated cloud. By default it runs every experiment at full (paper)
// scale; use -exp to select one and -scale to shrink the virtual-time
// budgets for a quick pass.
//
//	hunter-repro -list
//	hunter-repro -exp fig9 -scale 0.2
//	hunter-repro -scale 0.05        # quick pass over everything
//
// Observability: -v streams structured session logs to stderr; -trace,
// -metrics-out and -report export the run's telemetry (a trace file ending
// in .json is written in Chrome trace_event format for chrome://tracing or
// ui.perfetto.dev, any other name gets the raw JSONL trace). Telemetry is
// passive, so experiment output is byte-identical with or without it.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strings"
	"time"

	"github.com/hunter-cdb/hunter/internal/experiments"
	"github.com/hunter-cdb/hunter/internal/obsv"
	"github.com/hunter-cdb/hunter/internal/parallel"
	"github.com/hunter-cdb/hunter/internal/telemetry"
)

func main() {
	var (
		exp        = flag.String("exp", "", "comma-separated experiment ids to run (empty = all)")
		scale      = flag.Float64("scale", 1.0, "virtual-time budget scale (1 = paper scale)")
		seed       = flag.Int64("seed", 2022, "random seed")
		list       = flag.Bool("list", false, "list experiment ids and exit")
		workers    = flag.Int("workers", 0, "worker-pool size for overlapping independent sessions and experiments (0 = GOMAXPROCS, 1 = serial; output is byte-identical for any size)")
		verbose    = flag.Bool("v", false, "stream structured session logs to stderr")
		traceOut   = flag.String("trace", "", "write the span trace to this file (.json = Chrome trace_event format, else JSONL)")
		metricsOut = flag.String("metrics-out", "", "write the counter/gauge exposition to this file")
		reportOut  = flag.String("report", "", "write the run report (JSON) to this file")
		serve      = flag.String("serve", "", "serve the live introspection plane (/metrics /status /sessions /events) on this address, e.g. 127.0.0.1:8377")
		linger     = flag.Duration("serve-linger", 0, "keep the introspection server up this long after the experiments finish")
	)
	flag.Parse()

	if *list {
		for _, r := range experiments.All() {
			fmt.Printf("%-8s %s\n", r.ID, r.Title)
		}
		return
	}

	if *workers > 0 {
		parallel.SetWorkers(*workers)
	}
	var rec *telemetry.Recorder
	if *traceOut != "" || *metricsOut != "" || *reportOut != "" || *serve != "" {
		rec = telemetry.New()
	}
	var logger *slog.Logger
	if *verbose {
		logger = slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelInfo}))
	}
	var status *obsv.Registry
	if *serve != "" {
		status = obsv.NewRegistry()
		srv := obsv.NewServer(rec, status)
		addr, err := srv.Start(*serve)
		if err != nil {
			fmt.Fprintln(os.Stderr, "introspection server:", err)
			os.Exit(1)
		}
		// Banner goes to stderr: stdout stays byte-identical with -serve off.
		fmt.Fprintf(os.Stderr, "introspection plane on http://%s (/metrics /status /sessions /events)\n", addr)
		defer func() {
			if *linger > 0 {
				fmt.Fprintf(os.Stderr, "introspection server lingering %v on http://%s\n", *linger, addr)
				time.Sleep(*linger)
			}
			srv.Close()
		}()
	}
	cfg := experiments.Config{Scale: *scale, Seed: *seed, Recorder: rec, Logger: logger}
	if status != nil {
		// Assigned only when serving: a nil *Registry in the interface field
		// would read as a non-nil sink.
		cfg.Status = status
	}
	runners := experiments.All()
	if *exp != "" {
		runners = nil
		for _, id := range strings.Split(*exp, ",") {
			r, err := experiments.ByID(strings.TrimSpace(id))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			runners = append(runners, r)
		}
	}

	banner := func(r experiments.Runner) {
		fmt.Printf("==================================================================\n")
		fmt.Printf("%s — %s (scale %.2f)\n", r.ID, r.Title, *scale)
		fmt.Printf("==================================================================\n")
	}
	// runOne executes one experiment, routing any failure into the same
	// ordered writer as the results — not straight to stderr — so output
	// placement is deterministic with many workers even when runners fail.
	runOne := func(i int, w io.Writer) (time.Duration, error) {
		start := time.Now()
		err := runners[i].Run(cfg, w)
		if err != nil {
			fmt.Fprintf(w, "%s: error: %v\n", runners[i].ID, err)
		}
		return time.Since(start), err
	}

	failures := 0
	if parallel.Workers() == 1 || len(runners) == 1 {
		// Serial mode streams to stdout directly but keeps running after a
		// failure, matching the parallel mode's all-experiments behaviour.
		for i, r := range runners {
			banner(r)
			d, err := runOne(i, os.Stdout)
			if err != nil {
				failures++
			}
			fmt.Printf("[%s completed in %s wall time]\n\n", r.ID, d.Round(time.Second))
		}
	} else {
		// Independent experiments overlap: each runner writes into its own
		// buffer and the buffers are printed in paper order, so the output
		// matches the serial run byte for byte (wall-time lines aside).
		bufs := make([]bytes.Buffer, len(runners))
		errs := make([]error, len(runners))
		took := make([]time.Duration, len(runners))
		parallel.For(len(runners), 1, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				took[i], errs[i] = runOne(i, &bufs[i])
			}
		})
		for i, r := range runners {
			banner(r)
			os.Stdout.Write(bufs[i].Bytes())
			if errs[i] != nil {
				failures++
			}
			fmt.Printf("[%s completed in %s wall time]\n\n", r.ID, took[i].Round(time.Second))
		}
	}

	if err := rec.WriteFiles(*traceOut, *metricsOut, *reportOut); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "hunter-repro: %d of %d experiments failed\n", failures, len(runners))
		os.Exit(1)
	}
}
