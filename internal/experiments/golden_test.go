package experiments

import (
	"bytes"
	"testing"

	"github.com/hunter-cdb/hunter/internal/parallel"
)

// TestSerialParallelByteIdentical is the determinism contract of sched.go:
// a runner's output must be byte-for-byte identical whether its sessions
// run on one worker (the declaration-order loop) or fan out over the
// worker pool, and identical for any worker count. Each session owns its RNG, clock and
// provider, results land in declaration-indexed slots, and folding happens
// in declaration order on the calling goroutine — so scheduling must be
// invisible in the output.
func TestSerialParallelByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs tuning sessions")
	}
	cfg := Config{Scale: 0.01, Seed: 7}
	run := func(t *testing.T, id string, workers int) []byte {
		t.Helper()
		prev := parallel.SetWorkers(workers)
		defer parallel.SetWorkers(prev)
		r, err := ByID(id)
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
	// fig5 fans out four method sessions; table6 mixes two dialects over
	// four sessions. Together they exercise slot folding, seed offsets and
	// the table writer under contention. fig13 and fig14 are the ML-heavy
	// figures: PCA, RF sifting and DDPG with model reuse must be
	// bit-identical at any worker count. fig1 runs all five baselines,
	// the only figure here with QTune and ResTune.
	ids := []string{"table6", "fig5", "fig13", "fig14", "fig1"}
	if raceEnabled {
		// Race slowdown makes the multi-session figures too slow for the
		// per-package timeout; table6 still races the scheduler end to end.
		ids = ids[:1]
	}
	// The subtests mutate the process-wide worker override, so they must
	// not run in parallel with each other.
	for _, id := range ids {
		id := id
		t.Run(id, func(t *testing.T) {
			golden := run(t, id, 1)
			for _, workers := range []int{2, 8} {
				got := run(t, id, workers)
				if !bytes.Equal(golden, got) {
					t.Errorf("parallel output (workers=%d) differs from the one-worker golden\nserial:\n%s\nparallel:\n%s",
						workers, golden, got)
				}
			}
		})
	}
}
