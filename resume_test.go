package hunter_test

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/hunter-cdb/hunter"
)

// TestTuneStopAndResume drives the public kill-and-resume path: a run
// with StopAfterWaves checkpoints and stops, and Resume continues it to
// the same result an uninterrupted run produces. The drifts case also
// checks that the drift queue rides the checkpoint: Resume verifies the
// request's Drifts against it and rejects a shifted schedule.
func TestTuneStopAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end tuning runs")
	}
	stream := func(t *testing.T) []hunter.DriftEvent {
		t.Helper()
		drifts, err := hunter.GenerateDriftStream(hunter.TPCC(), hunter.DriftStream{
			Kind: hunter.StreamDiurnal, Period: time.Hour, Events: 4, Seed: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		return drifts
	}
	for _, c := range []struct {
		name   string
		drifts func(*testing.T) []hunter.DriftEvent
	}{
		{"batch", func(*testing.T) []hunter.DriftEvent { return nil }},
		{"drifts", stream},
	} {
		t.Run(c.name, func(t *testing.T) {
			req := func() hunter.Request {
				return hunter.Request{
					Dialect:  hunter.MySQL,
					Workload: hunter.TPCC(),
					Budget:   90 * time.Minute,
					Clones:   2,
					Seed:     5,
					Drifts:   c.drifts(t),
				}
			}

			golden, err := hunter.Tune(req())
			if err != nil {
				t.Fatal(err)
			}

			dir := t.TempDir()
			stopped := req()
			stopped.Checkpoint = &hunter.CheckpointPolicy{Dir: dir, StopAfterWaves: 4}
			if _, err := hunter.Tune(stopped); !errors.Is(err, hunter.ErrStopRequested) {
				t.Fatalf("want ErrStopRequested, got %v", err)
			}
			wave, clock, err := hunter.PeekCheckpoint(dir)
			if err != nil {
				t.Fatal(err)
			}
			if wave < 4 || clock <= 0 {
				t.Fatalf("checkpoint at wave %d, clock %v", wave, clock)
			}

			if len(stopped.Drifts) > 0 {
				shifted := req()
				shifted.Drifts[0].At += time.Minute
				shifted.Checkpoint = &hunter.CheckpointPolicy{Dir: dir}
				_, err := hunter.Resume(shifted)
				if err == nil || !strings.Contains(err.Error(), "drift 0 mismatch") {
					t.Fatalf("resume with a shifted drift: want the drift-mismatch error, got %v", err)
				}
				shifted = req()
				shifted.Drifts[1].Profile = nil
				shifted.Checkpoint = &hunter.CheckpointPolicy{Dir: dir}
				if _, err := hunter.Resume(shifted); err == nil {
					t.Fatal("resume with a drift missing its profile accepted")
				}
			}

			resumed := req()
			resumed.Checkpoint = &hunter.CheckpointPolicy{Dir: dir}
			res, err := hunter.Resume(resumed)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res, golden) {
				t.Errorf("resumed result differs from uninterrupted run\ngolden:  %+v\nresumed: %+v", golden, res)
			}

			// Resume without a checkpoint policy must fail up front.
			if _, err := hunter.Resume(req()); err == nil {
				t.Error("Resume without Checkpoint.Dir accepted")
			}
		})
	}
}
