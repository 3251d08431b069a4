// Command hunter-bench stress-tests a single configuration against the
// simulated cloud database and prints the measured performance and a
// selection of the 63 collected metrics — the raw operation every tuning
// step performs.
//
//	hunter-bench -db mysql -workload tpcc
//	hunter-bench -workload sysbench-wo \
//	    -set innodb_buffer_pool_size=17179869184 -set innodb_flush_log_at_trx_commit=2
//
// Profiling: -pprof ADDR serves net/http/pprof on ADDR (e.g.
// localhost:6060) and samples Go runtime statistics into the telemetry
// gauges every second for the life of the process; -metrics-out and
// -report export the engine counters and the run summary.
package main

import (
	"flag"
	"fmt"
	"math"
	"net/http"
	_ "net/http/pprof"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/hunter-cdb/hunter/internal/cloud"
	"github.com/hunter-cdb/hunter/internal/metrics"
	"github.com/hunter-cdb/hunter/internal/simdb"
	"github.com/hunter-cdb/hunter/internal/telemetry"
	"github.com/hunter-cdb/hunter/internal/workload"
)

type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

func main() {
	var (
		db       = flag.String("db", "mysql", "database dialect: mysql | postgres")
		wl       = flag.String("workload", "tpcc", "workload: tpcc | sysbench-ro | sysbench-wo | sysbench-rw | production")
		instance = flag.String("instance", "F", "instance type A..H")
		seed     = flag.Int64("seed", 1, "random seed")
		repeat   = flag.Int("repeat", 1, "run the stress test N times and report mean/stddev throughput")
		status   = flag.Bool("status", false, "dump the full SHOW STATUS metric snapshot")
		pprofOn  = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) and sample runtime stats every second")
		mout     = flag.String("metrics-out", "", "write the counter/gauge exposition to this file")
		report   = flag.String("report", "", "write the run report (JSON) to this file")
		compress = flag.Bool("compress", false, "stress-test the compressed workload (production: clustered kernel; others: fractional measurement effort)")
		sets     multiFlag
	)
	flag.Var(&sets, "set", "override a knob: name=value (repeatable)")
	flag.Parse()

	var rec *telemetry.Recorder
	if *pprofOn != "" || *mout != "" || *report != "" {
		rec = telemetry.New()
	}
	if *pprofOn != "" {
		go func() {
			if err := http.ListenAndServe(*pprofOn, nil); err != nil {
				fmt.Fprintf(os.Stderr, "pprof server: %v\n", err)
			}
		}()
		// Periodic runtime sampler: keeps the gauges fresh while a human
		// inspects /debug/pprof. Exits with the process.
		go func() {
			for range time.Tick(time.Second) {
				rec.CaptureRuntime()
			}
		}()
		fmt.Fprintf(os.Stderr, "pprof listening on http://%s/debug/pprof/\n", *pprofOn)
	}

	dialect := simdb.MySQL
	if *db == "postgres" || *db == "postgresql" {
		dialect = simdb.Postgres
	}
	var p *workload.Profile
	switch *wl {
	case "tpcc":
		p = workload.TPCC()
	case "sysbench-ro":
		p = workload.SysbenchRO()
	case "sysbench-wo":
		p = workload.SysbenchWO()
	case "sysbench-rw":
		p = workload.SysbenchRW()
	case "production":
		p = workload.Production()
	default:
		fatalf("unknown workload %q", *wl)
	}
	if *compress {
		if *wl == "production" {
			k := workload.CompressProduction()
			p = k.Profile
			fmt.Fprintf(os.Stderr, "compressed kernel: %d trace clusters → %d classes (%.0f%% coverage), measure fraction %.2f\n",
				k.Clusters, k.Kept, 100*k.Coverage, p.MeasureFraction)
		} else {
			p = p.WithMeasureFraction(0.25)
		}
	}
	it, err := cloud.TypeByName(*instance)
	if err != nil {
		fatalf("%v", err)
	}
	eng, err := simdb.NewEngine(dialect, it.Resources(), *seed)
	if err != nil {
		fatalf("%v", err)
	}
	cfg := eng.Catalog().Defaults()
	for _, s := range sets {
		name, val, ok := strings.Cut(s, "=")
		if !ok {
			fatalf("bad -set %q, want name=value", s)
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			fatalf("bad -set value %q: %v", val, err)
		}
		if _, ok := eng.Catalog().Spec(name); !ok {
			fatalf("unknown knob %q for %s", name, dialect)
		}
		cfg[name] = v
	}
	if err := eng.Configure(cfg); err != nil {
		fatalf("instance failed to boot: %v", err)
	}
	eng.SetRecorder(rec)

	perf, mv, err := eng.Run(p)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("%s / %s on CDB_%s (%d cores, %d GB RAM)\n", dialect, p.Name, it.Name, it.Cores, it.RAMGB)
	fmt.Printf("  throughput: %9.0f txn/s (%8.0f txn/min)\n", perf.ThroughputTPS, perf.TPM())
	fmt.Printf("  latency:    avg %6.1f ms   p95 %6.1f ms   p99 %6.1f ms\n",
		perf.AvgLatencyMs, perf.P95LatencyMs, perf.P99LatencyMs)
	if w := eng.LastWarmupSeconds(); w > 0 {
		fmt.Printf("  buffer pool warm-up: %.1f s\n", w)
	}
	if *repeat > 1 {
		// Repeated runs share the engine, so buffer-pool state carries over
		// and each run redraws the measurement noise — the spread estimates
		// the simulator's NoiseStdDev as a client would observe it.
		tps := make([]float64, 0, *repeat)
		tps = append(tps, perf.ThroughputTPS)
		for i := 1; i < *repeat; i++ {
			rp, _, err := eng.Run(p)
			if err != nil {
				fatalf("%v", err)
			}
			tps = append(tps, rp.ThroughputTPS)
		}
		mean, sd := meanStddev(tps)
		fmt.Printf("  repeated %d×: throughput mean %9.0f txn/s  stddev %7.1f txn/s (%.2f%%)\n",
			*repeat, mean, sd, 100*sd/mean)
	}
	if err := rec.WriteFiles("", *mout, *report); err != nil {
		fatalf("%v", err)
	}
	if *status {
		fmt.Println("\nSHOW STATUS:")
		if err := metrics.FormatStatus(os.Stdout, mv); err != nil {
			fatalf("%v", err)
		}
		return
	}
	fmt.Println("\nselected status metrics (per execution window):")
	for _, i := range []int{
		metrics.BufferPoolReadRequests, metrics.BufferPoolReads,
		metrics.PagesWritten, metrics.DataFsyncs, metrics.LogWaits,
		metrics.RowLockWaits, metrics.LockDeadlocks,
		metrics.TransactionsCommitted, metrics.ThreadsRunning,
	} {
		fmt.Printf("  %-32s %14.0f\n", metrics.Name(i), mv[i])
	}
}

func meanStddev(xs []float64) (mean, sd float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	if len(xs) < 2 {
		return mean, 0
	}
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	return mean, math.Sqrt(ss / float64(len(xs)-1))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
