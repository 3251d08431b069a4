package simdb

import (
	"testing"

	"github.com/hunter-cdb/hunter/internal/telemetry"
	"github.com/hunter-cdb/hunter/internal/workload"
)

// TestEngineRunAllocsDisabled guards the zero-overhead contract at the
// stack's hottest call: a warm engine with telemetry disabled allocates
// only the metrics vector Run returns, which the caller keeps. The Zipf
// samplers are stack values over shared tables and the lock table reuses
// its slots. Warm means steady state: the first few runs grow the
// per-transaction write-set scratch to the mix's longest transaction.
func TestEngineRunAllocsDisabled(t *testing.T) {
	for _, p := range []*workload.Profile{workload.TPCC(), workload.SysbenchRW(), workload.Production()} {
		e, err := NewEngine(MySQL, referenceMySQL(), 1)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ { // warm the reusable buffers
			if _, _, err := e.Run(p); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(10, func() {
			if _, _, err := e.Run(p); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 1 {
			t.Errorf("%s: Engine.Run with telemetry disabled: %v allocs/op, want <= 1 (the returned metrics vector)", p.Name, allocs)
		}
	}
}

// TestEngineTelemetryCounters checks that an attached recorder sees the
// engine's buffer-pool and durability activity.
func TestEngineTelemetryCounters(t *testing.T) {
	e, err := NewEngine(MySQL, referenceMySQL(), 1)
	if err != nil {
		t.Fatal(err)
	}
	rec := telemetry.New()
	e.SetRecorder(rec)
	p := workload.TPCC()
	for i := 0; i < 3; i++ {
		if _, _, err := e.Run(p); err != nil {
			t.Fatal(err)
		}
	}
	if got := rec.Counter("simdb.stress_tests").Value(); got != 3 {
		t.Fatalf("stress_tests = %d, want 3", got)
	}
	for _, name := range []string{
		"simdb.bufferpool.hits", "simdb.bufferpool.misses", "simdb.fsync_batches",
	} {
		if rec.Counter(name).Value() <= 0 {
			t.Fatalf("counter %s not populated after tpcc runs", name)
		}
	}
	e.SetRecorder(nil)
	if _, _, err := e.Run(p); err != nil {
		t.Fatal(err)
	}
	if got := rec.Counter("simdb.stress_tests").Value(); got != 3 {
		t.Fatalf("detached engine still reported: stress_tests = %d", got)
	}
}

// BenchmarkEngineRunTelemetry compares the stress-test hot path with the
// recorder detached (the default; must match BenchmarkEngineRun) and
// attached (pays one counter flush per run).
func BenchmarkEngineRunTelemetry(b *testing.B) {
	for _, mode := range []struct {
		name     string
		attached bool
	}{{"disabled", false}, {"enabled", true}} {
		b.Run(mode.name, func(b *testing.B) {
			e, err := NewEngine(MySQL, referenceMySQL(), 1)
			if err != nil {
				b.Fatal(err)
			}
			if mode.attached {
				e.SetRecorder(telemetry.New())
			}
			p := workload.TPCC()
			if _, _, err := e.Run(p); err != nil { // warm the reusable buffers
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := e.Run(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestEngineTelemetryPassive proves recording cannot change measurement
// results: two engines with the same seed produce bit-identical perf and
// metrics whether or not a recorder is attached.
func TestEngineTelemetryPassive(t *testing.T) {
	plain, err := NewEngine(MySQL, referenceMySQL(), 7)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := NewEngine(MySQL, referenceMySQL(), 7)
	if err != nil {
		t.Fatal(err)
	}
	traced.SetRecorder(telemetry.New())
	p := workload.SysbenchRW()
	for i := 0; i < 3; i++ {
		p1, m1, err1 := plain.Run(p)
		p2, m2, err2 := traced.Run(p)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if p1 != p2 {
			t.Fatalf("run %d: perf diverged with recorder attached:\n%+v\n%+v", i, p1, p2)
		}
		if len(m1) != len(m2) {
			t.Fatalf("run %d: metric vectors differ in length", i)
		}
		for k := range m1 {
			if m1[k] != m2[k] {
				t.Fatalf("run %d: metric %d diverged: %v vs %v", i, k, m1[k], m2[k])
			}
		}
	}
}
