package cdbtune

import (
	"testing"
	"time"

	"github.com/hunter-cdb/hunter/internal/tuner"
	"github.com/hunter-cdb/hunter/internal/workload"
)

// TestRunFeaturizesOnceAfterDrift: Run reads the workload features at the
// start and once more after the first drift, not after later ones (QTune
// over fig10's single drift).
func TestRunFeaturizesOnceAfterDrift(t *testing.T) {
	s, err := tuner.NewSession(tuner.Request{Workload: workload.SysbenchRO(), Budget: 90 * time.Minute, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i, p := range []*workload.Profile{workload.SysbenchWO(), workload.SysbenchRW()} {
		if err := s.ScheduleDrift(time.Duration(30*(i+1))*time.Minute, p); err != nil {
			t.Fatal(err)
		}
	}
	var read []string
	featurize := func(p *workload.Profile) []float64 {
		read = append(read, p.Name)
		return []float64{float64(len(read))}
	}
	if err := Run(s, noiseDecaySteps, featurize); err != nil {
		t.Fatal(err)
	}
	want := []string{workload.SysbenchRO().Name, workload.SysbenchWO().Name}
	if len(read) != len(want) || read[0] != want[0] || read[1] != want[1] {
		t.Fatalf("features read for %q, want %q", read, want)
	}
	if !s.Drifted() || s.Req.Workload.Name != workload.SysbenchRW().Name {
		t.Fatalf("session ended on %s; both drifts must fire within the budget", s.Req.Workload.Name)
	}
}
