// Command hunter-fleet is the multi-tenant tuning fleet daemon: it runs N
// simulated tenant databases through budgeted HUNTER tuning sessions,
// sharing trained models across tenants with the same workload signature,
// and prints a deterministic fleet report.
//
//	hunter-fleet -tenants 1000 -workers 8
//	hunter-fleet -tenants 200 -reuse=false -report fleet.json
//	hunter-fleet -tenants 500 -checkpoint-dir ckpt -serve 127.0.0.1:8377
//
// The report on stdout is byte-identical for any -workers value and
// across kill-and-resume; wall-clock chatter goes to stderr.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"path/filepath"
	"time"

	"github.com/hunter-cdb/hunter/internal/fleet"
	"github.com/hunter-cdb/hunter/internal/obsv"
	"github.com/hunter-cdb/hunter/internal/parallel"
	"github.com/hunter-cdb/hunter/internal/telemetry"
)

func main() {
	var (
		tenants  = flag.Int("tenants", 100, "number of synthetic tenant databases")
		workers  = flag.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
		reuse    = flag.Bool("reuse", true, "share trained models across tenants")
		seed     = flag.Int64("seed", 1, "fleet seed (tenant workloads, budgets, SLO targets)")
		active   = flag.Int("max-active", 32, "tenant sessions per scheduling round")
		queue    = flag.Int("queue-depth", 0, "admission queue capacity (0 = admit all)")
		tBudget  = flag.Duration("tenant-budget", 0, "clamp each tenant's virtual budget (0 = as requested)")
		fBudget  = flag.Duration("fleet-budget", 0, "fleet-wide virtual-time pool; tenants beyond it are evicted (0 = unlimited)")
		ckptDir  = flag.String("checkpoint-dir", "", "directory for fleet snapshots (enables checkpointing)")
		ckptEvry = flag.Int("checkpoint-every", 1, "rounds between snapshots")
		resume   = flag.Bool("resume", false, "continue the fleet from the snapshot in -checkpoint-dir")
		stopAt   = flag.Int("stop-after-rounds", 0, "checkpoint and stop after this many rounds (interruption testing)")
		serve    = flag.String("serve", "", "serve the live introspection plane (/metrics /status /sessions /events) on this address")
		linger   = flag.Duration("serve-linger", 0, "keep the introspection server up this long after the run finishes")
		report   = flag.String("report", "", "write the fleet report (JSON) to this file")
		metrics  = flag.String("metrics-out", "", "write the counter/gauge exposition to this file")
		verbose  = flag.Bool("v", false, "stream structured fleet logs to stderr")
	)
	flag.Parse()

	if *workers > 0 {
		parallel.SetWorkers(*workers)
	}
	cfg := fleet.Config{
		Tenants: fleet.SyntheticTenants(*tenants, *seed),
		Reuse:   *reuse,
		Seed:    *seed,
		Policy: fleet.Policy{
			MaxActive:          *active,
			QueueDepth:         *queue,
			MaxTenantBudget:    *tBudget,
			TotalVirtualBudget: *fBudget,
		},
		CheckpointDir:   *ckptDir,
		CheckpointEvery: *ckptEvry,
		StopAfterRounds: *stopAt,
	}
	if *verbose {
		cfg.Logger = slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelInfo}))
	}
	var rec *telemetry.Recorder
	if *serve != "" || *metrics != "" {
		rec = telemetry.New()
		cfg.Recorder = rec
	}
	if *serve != "" {
		reg := obsv.NewRegistry()
		cfg.Status = reg
		srv := obsv.NewServer(rec, reg)
		addr, err := srv.Start(*serve)
		if err != nil {
			fatalf("introspection server: %v", err)
		}
		// Banner on stderr: stdout stays byte-identical with -serve off.
		fmt.Fprintf(os.Stderr, "introspection plane on http://%s (/metrics /status /sessions /events)\n", addr)
		defer func() {
			if *linger > 0 {
				fmt.Fprintf(os.Stderr, "introspection server lingering %v on http://%s\n", *linger, addr)
				time.Sleep(*linger)
			}
			srv.Close()
		}()
	}
	if *resume && *ckptDir == "" {
		fatalf("-resume needs -checkpoint-dir")
	}

	var f *fleet.Fleet
	var err error
	if *resume {
		f, err = fleet.Resume(cfg)
	} else {
		f, err = fleet.New(cfg)
	}
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Fprintf(os.Stderr, "fleet: %d tenants, reuse=%v, max-active %d, workers %d\n",
		*tenants, *reuse, *active, parallel.Workers())

	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stopSignals()

	start := time.Now()
	runErr := f.Run(ctx)
	wall := time.Since(start)

	if werr := rec.WriteFiles("", *metrics, ""); werr != nil {
		fatalf("%v", werr)
	}
	switch {
	case errors.Is(runErr, fleet.ErrStopRequested):
		fmt.Printf("fleet stopped at round %d after checkpoint\n", f.Rounds())
		fmt.Printf("checkpoint: %s\n", filepath.Join(*ckptDir, fleet.CheckpointFileName))
		fmt.Printf("continue with:  %s -resume -checkpoint-dir %s  <same fleet flags>\n", os.Args[0], *ckptDir)
		return
	case runErr != nil && ctx.Err() != nil:
		fmt.Fprintf(os.Stderr, "interrupted after %d rounds", f.Rounds())
		if *ckptDir != "" {
			fmt.Fprintf(os.Stderr, "; continue with -resume -checkpoint-dir %s", *ckptDir)
		}
		fmt.Fprintln(os.Stderr)
		return
	case runErr != nil:
		fatalf("%v", runErr)
	}

	r := f.Report()
	r.Render(os.Stdout)
	if *report != "" {
		if err := r.WriteJSON(*report); err != nil {
			fatalf("%v", err)
		}
		fmt.Fprintf(os.Stderr, "fleet report written to %s\n", *report)
	}
	fmt.Fprintf(os.Stderr, "wall time %s (%.1f sessions/s)\n",
		wall.Round(time.Millisecond), float64(r.Done+r.Failed)/wall.Seconds())
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
