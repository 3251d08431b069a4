package simdb

import (
	"math"
	"testing"

	"github.com/hunter-cdb/hunter/internal/knob"
	"github.com/hunter-cdb/hunter/internal/metrics"
	"github.com/hunter-cdb/hunter/internal/sim"
	"github.com/hunter-cdb/hunter/internal/workload"
)

func TestParamsFromMySQLDefaults(t *testing.T) {
	p := ParamsFrom(MySQL, knob.MySQL().Defaults())
	if p.BufferPoolBytes != 128<<20 {
		t.Errorf("buffer pool %v, want 128 MB", p.BufferPoolBytes)
	}
	if p.FlushAtCommit != 1 {
		t.Errorf("flush at commit %d, want 1", p.FlushAtCommit)
	}
	if !p.Doublewrite || p.RedoAmplify != 1.15 {
		t.Errorf("doublewrite defaults wrong: %v %v", p.Doublewrite, p.RedoAmplify)
	}
	if p.ThreadPool {
		t.Error("default thread model should not be pool-of-threads")
	}
	if !p.OSCacheAssist {
		t.Error("default fsync flush method should use the OS cache")
	}
}

func TestParamsODirectDisablesOSCache(t *testing.T) {
	cfg := knob.MySQL().Defaults()
	cfg["innodb_flush_method"] = 2 // O_DIRECT
	if ParamsFrom(MySQL, cfg).OSCacheAssist {
		t.Fatal("O_DIRECT must disable the OS cache assist")
	}
}

func TestParamsFromPostgres(t *testing.T) {
	cfg := knob.Postgres().Defaults()
	p := ParamsFrom(Postgres, cfg)
	if p.FlushAtCommit != 1 {
		t.Errorf("synchronous_commit=on should map to 1, got %d", p.FlushAtCommit)
	}
	cfg["synchronous_commit"] = 0
	if ParamsFrom(Postgres, cfg).FlushAtCommit != 0 {
		t.Error("synchronous_commit=off should map to 0")
	}
	cfg["synchronous_commit"] = 3
	cfg["fsync"] = 0
	if ParamsFrom(Postgres, cfg).FlushAtCommit != 0 {
		t.Error("fsync=off must override synchronous_commit")
	}
}

func TestValidateBootFailures(t *testing.T) {
	res := referenceMySQL()
	cfg := knob.MySQL().Defaults()
	cfg["innodb_buffer_pool_size"] = 40 << 30 // > 95% of 32 GB
	if err := ParamsFrom(MySQL, cfg).ValidateBoot(res, 512); err == nil {
		t.Fatal("oversized buffer pool must fail to boot")
	}
	ok := knob.MySQL().Defaults()
	if err := ParamsFrom(MySQL, ok).ValidateBoot(res, 512); err != nil {
		t.Fatalf("defaults should boot: %v", err)
	}
}

func TestEngineConfigureBootFailureKeepsOldConfig(t *testing.T) {
	e, err := NewEngine(MySQL, referenceMySQL(), 1)
	if err != nil {
		t.Fatal(err)
	}
	bad := knob.MySQL().Defaults()
	bad["innodb_buffer_pool_size"] = 60 << 30
	if err := e.Configure(bad); err == nil {
		t.Fatal("expected boot failure")
	}
	// Engine still serves on the old configuration.
	if _, _, err := e.Run(workload.SysbenchRO()); err != nil {
		t.Fatalf("engine broken after failed configure: %v", err)
	}
}

// TestPickClassDistribution: the class picker of the access plan, which
// draws every stress-test transaction's class, follows the mix weights.
func TestPickClassDistribution(t *testing.T) {
	e, err := NewEngine(MySQL, referenceMySQL(), 1)
	if err != nil {
		t.Fatal(err)
	}
	p := workload.TPCC()
	pl := e.planFor(p, e.shape(p))
	counts := make([]int, len(p.Mix))
	rng := sim.NewRNG(1)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[pl.pickClass(rng.Float64())]++
	}
	// NewOrder weight 45/100.
	if frac := float64(counts[0]) / n; math.Abs(frac-0.45) > 0.01 {
		t.Fatalf("new_order frequency %.3f, want ≈0.45", frac)
	}
	if c := pl.pickClass(0.9999); c < 0 || c >= len(p.Mix) {
		t.Fatalf("u near 1 picked class %d of %d", c, len(p.Mix))
	}
}

func TestEngineDeterminism(t *testing.T) {
	run := func() Perf {
		e, err := NewEngine(MySQL, referenceMySQL(), 77)
		if err != nil {
			t.Fatal(err)
		}
		p, _, err := e.Run(workload.TPCC())
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, b := run(), run()
	if a.ThroughputTPS != b.ThroughputTPS || a.P95LatencyMs != b.P95LatencyMs {
		t.Fatalf("same seed, different results: %+v vs %+v", a, b)
	}
}

func TestEngineMetricsVector(t *testing.T) {
	e, err := NewEngine(MySQL, referenceMySQL(), 2)
	if err != nil {
		t.Fatal(err)
	}
	perf, mv, err := e.Run(workload.TPCC())
	if err != nil {
		t.Fatal(err)
	}
	if len(mv) != metrics.Count {
		t.Fatalf("metric vector length %d", len(mv))
	}
	if mv[metrics.TransactionsCommitted] <= 0 {
		t.Fatal("committed transactions metric should be positive")
	}
	// Committed ≈ throughput × window.
	want := perf.ThroughputTPS * execWindowSec
	if math.Abs(mv[metrics.TransactionsCommitted]-want)/want > 0.1 {
		t.Fatalf("txn metric %.0f inconsistent with throughput (%.0f)", mv[metrics.TransactionsCommitted], want)
	}
	for i, v := range mv {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("metric %s is %v", metrics.Name(i), v)
		}
	}
}

// Knob-response tests: the mechanisms the tuning story depends on.

func runWith(t *testing.T, mutate func(knob.Config)) Perf {
	t.Helper()
	e, err := NewEngine(MySQL, referenceMySQL(), 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := knob.MySQL().Defaults()
	mutate(cfg)
	if err := e.Configure(cfg); err != nil {
		t.Fatal(err)
	}
	p, _, err := e.Run(workload.TPCC())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestBiggerBufferPoolHelpsTPCC(t *testing.T) {
	small := runWith(t, func(c knob.Config) {})
	big := runWith(t, func(c knob.Config) { c["innodb_buffer_pool_size"] = 16 << 30 })
	if big.ThroughputTPS <= small.ThroughputTPS*1.1 {
		t.Fatalf("16 GB pool (%.0f tps) should clearly beat 128 MB (%.0f tps)",
			big.ThroughputTPS, small.ThroughputTPS)
	}
}

func TestRelaxedDurabilityHelpsWrites(t *testing.T) {
	e, err := NewEngine(MySQL, referenceMySQL(), 6)
	if err != nil {
		t.Fatal(err)
	}
	wo := workload.SysbenchWO()
	strict, _, _ := e.Run(wo)
	cfg := knob.MySQL().Defaults()
	cfg["innodb_flush_log_at_trx_commit"] = 2
	cfg["sync_binlog"] = 0
	if err := e.Configure(cfg); err != nil {
		t.Fatal(err)
	}
	relaxed, _, _ := e.Run(wo)
	if relaxed.ThroughputTPS <= strict.ThroughputTPS {
		t.Fatalf("relaxed durability (%.0f tps) should beat per-commit fsync (%.0f tps)",
			relaxed.ThroughputTPS, strict.ThroughputTPS)
	}
}

func TestIOCapacityHelpsWriteHeavy(t *testing.T) {
	e, err := NewEngine(MySQL, referenceMySQL(), 7)
	if err != nil {
		t.Fatal(err)
	}
	wo := workload.SysbenchWO()
	low, _, _ := e.Run(wo)
	cfg := knob.MySQL().Defaults()
	cfg["innodb_io_capacity"] = 20000
	cfg["innodb_io_capacity_max"] = 40000
	if err := e.Configure(cfg); err != nil {
		t.Fatal(err)
	}
	high, _, _ := e.Run(wo)
	if high.P95LatencyMs >= low.P95LatencyMs {
		t.Fatalf("higher io_capacity should cut flush stalls: p95 %.1f vs %.1f",
			high.P95LatencyMs, low.P95LatencyMs)
	}
}

func TestThreadConcurrencyTamesThrashing(t *testing.T) {
	e, err := NewEngine(MySQL, referenceMySQL(), 8)
	if err != nil {
		t.Fatal(err)
	}
	rw := workload.SysbenchRW() // 512 client threads
	// Warm cache and relaxed durability isolate the CPU effect: thread
	// thrashing is masked when the disk or the group-commit fsync is the
	// bottleneck (group commit actually *rewards* high concurrency).
	base := func() knob.Config {
		cfg := knob.MySQL().Defaults()
		cfg["innodb_buffer_pool_size"] = 16 << 30
		cfg["innodb_flush_log_at_trx_commit"] = 2
		cfg["sync_binlog"] = 0
		cfg["innodb_io_capacity"] = 10000
		cfg["max_connections"] = 1024 // admit everyone
		return cfg
	}
	if err := e.Configure(base()); err != nil {
		t.Fatal(err)
	}
	thrashed, _, _ := e.Run(rw)
	cfg := base()
	cfg["innodb_thread_concurrency"] = 64
	if err := e.Configure(cfg); err != nil {
		t.Fatal(err)
	}
	tamed, _, _ := e.Run(rw)
	if tamed.ThroughputTPS <= thrashed.ThroughputTPS {
		t.Fatalf("thread concurrency cap should beat thrashing: %.0f vs %.0f tps",
			tamed.ThroughputTPS, thrashed.ThroughputTPS)
	}
}

func TestFailedPerfSentinel(t *testing.T) {
	f := FailedPerf()
	if !f.Failed || f.ThroughputTPS != -1000 || !math.IsInf(f.P95LatencyMs, 1) {
		t.Fatalf("sentinel wrong: %+v", f)
	}
	def := Perf{ThroughputTPS: 100, P95LatencyMs: 50}
	if fit := f.Fitness(def, 0.5); fit != -10 {
		t.Fatalf("failed fitness = %v, want -10", fit)
	}
}

func TestFitnessEquation(t *testing.T) {
	def := Perf{ThroughputTPS: 100, P95LatencyMs: 100}
	p := Perf{ThroughputTPS: 150, P95LatencyMs: 50}
	// α=0.5: 0.5·(50/100) + 0.5·(50/100) = 0.5.
	if fit := p.Fitness(def, 0.5); math.Abs(fit-0.5) > 1e-9 {
		t.Fatalf("fitness = %v, want 0.5", fit)
	}
	// α=1: throughput only.
	if fit := p.Fitness(def, 1); math.Abs(fit-0.5) > 1e-9 {
		t.Fatalf("alpha=1 fitness = %v", fit)
	}
	// α=0: latency only.
	if fit := p.Fitness(def, 0); math.Abs(fit-0.5) > 1e-9 {
		t.Fatalf("alpha=0 fitness = %v", fit)
	}
	if !p.Better(def, def, 0.5) {
		t.Fatal("improved perf should compare better")
	}
}

func TestWarmupAccounting(t *testing.T) {
	e, err := NewEngine(MySQL, referenceMySQL(), 9)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Run(workload.SysbenchRO()); err != nil {
		t.Fatal(err)
	}
	if e.LastWarmupSeconds() <= 0 {
		t.Fatal("first run on a fresh pool should report warm-up time")
	}
	if _, _, err := e.Run(workload.SysbenchRO()); err != nil {
		t.Fatal(err)
	}
	if e.LastWarmupSeconds() != 0 {
		t.Fatal("second run on a warm pool should not re-warm")
	}
}

func TestDialectString(t *testing.T) {
	if MySQL.String() != "mysql" || Postgres.String() != "postgresql" {
		t.Fatal("dialect names wrong")
	}
}
