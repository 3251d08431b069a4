package experiments

import (
	"bytes"
	"testing"

	"github.com/hunter-cdb/hunter/internal/parallel"
)

// TestChaosWorkerByteIdentity is the determinism contract of the fault
// injector: the chaos experiment's output — fault tallies included — must
// be byte-identical for any worker-pool size, because every fault decision
// is a pure function of seeds and sequence numbers, never of scheduling.
func TestChaosWorkerByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs tuning sessions")
	}
	cfg := Config{Scale: 0.02, Seed: 9}
	run := func(t *testing.T, workers int) []byte {
		t.Helper()
		prev := parallel.SetWorkers(workers)
		defer parallel.SetWorkers(prev)
		r, err := ByID("chaos")
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := r.Run(cfg, &buf); err != nil {
			t.Fatal(err)
		}
		if buf.Len() == 0 {
			t.Fatal("no output")
		}
		return buf.Bytes()
	}
	golden := run(t, 1)
	if !bytes.Contains(golden, []byte("fault(s) injected")) {
		t.Fatalf("chaos run reported no fault summary:\n%s", golden)
	}
	for _, workers := range []int{2, 8} {
		if got := run(t, workers); !bytes.Equal(golden, got) {
			t.Errorf("chaos output (workers=%d) differs from workers=1\ngolden:\n%s\ngot:\n%s",
				workers, golden, got)
		}
	}
}
