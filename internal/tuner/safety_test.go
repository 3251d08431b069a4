package tuner

import (
	"testing"
	"time"

	"github.com/hunter-cdb/hunter/internal/safety"
	"github.com/hunter-cdb/hunter/internal/workload"
)

// TestScheduleDriftQueue: drifts scheduled out of order queue in time
// order, fire in sequence, and late insertions land in the pending tail
// without disturbing already-fired history.
func TestScheduleDriftQueue(t *testing.T) {
	s := newTestSession(t, 1, 12*time.Hour)
	wo, ro, rw := workload.SysbenchWO(), workload.SysbenchRO(), workload.SysbenchRW()

	if err := s.ScheduleDrift(-time.Minute, wo); err == nil {
		t.Fatal("negative drift time should be rejected")
	}
	if err := s.ScheduleDrift(time.Hour, nil); err == nil {
		t.Fatal("nil drift workload should be rejected")
	}

	// Schedule out of order; the queue must come back sorted.
	if err := s.ScheduleDrift(4*time.Hour, rw); err != nil {
		t.Fatal(err)
	}
	if err := s.ScheduleDrift(1*time.Hour, wo); err != nil {
		t.Fatal(err)
	}
	if err := s.ScheduleDrift(2*time.Hour, ro); err != nil {
		t.Fatal(err)
	}
	got := s.ScheduledDrifts()
	if len(got) != 3 || got[0].Profile.Name != "sysbench-wo" ||
		got[1].Profile.Name != "sysbench-ro" || got[2].Profile.Name != "sysbench-rw" {
		t.Fatalf("queue not time-ordered: %+v", got)
	}

	// Fire the first drift, then insert another pending entry: history
	// stays, the insertion sorts into the tail.
	for !s.Drifted() {
		if _, err := s.Evaluate(s.Space.Random(s.RNG)); err != nil {
			t.Fatal(err)
		}
	}
	if s.Req.Workload.Name != "sysbench-wo" {
		t.Fatalf("first drift switched to %s", s.Req.Workload.Name)
	}
	if err := s.ScheduleDrift(90*time.Minute, workload.TPCC()); err != nil {
		t.Fatal(err)
	}
	got = s.ScheduledDrifts()
	want := []string{"sysbench-wo", "tpcc", "sysbench-ro", "sysbench-rw"}
	if len(got) != len(want) {
		t.Fatalf("queue length %d, want %d", len(got), len(want))
	}
	for i, name := range want {
		if got[i].Profile.Name != name {
			t.Fatalf("queue[%d] = %s, want %s (%+v)", i, got[i].Profile.Name, name, got)
		}
	}
}

// BenchmarkDriftStreamSession measures the full online-safety wave cycle:
// a three-config stress wave plus the guard's monitor/canary/deploy steps
// under a scheduled drift stream.
func BenchmarkDriftStreamSession(b *testing.B) {
	s, err := NewSession(Request{
		Workload: workload.TPCC(),
		Budget:   1 << 62,
		Clones:   3,
		Seed:     1,
		Safety:   &safety.Options{Guardrails: true},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	events, err := workload.GenerateStream(workload.TPCC(), workload.StreamSpec{
		Kind: workload.StreamDiurnal, Period: 1 << 40, Events: 6, Amplitude: 0.9, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, ev := range events {
		if err := s.ScheduleDrift(ev.At, ev.Profile); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.EvaluateBatch([][]float64{
			s.Space.Random(s.RNG), s.Space.Random(s.RNG), s.Space.Random(s.RNG),
		}); err != nil {
			b.Fatal(err)
		}
	}
}
