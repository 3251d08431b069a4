package core

import (
	"testing"
	"time"

	"github.com/hunter-cdb/hunter/internal/knob"
	"github.com/hunter-cdb/hunter/internal/metrics"
	"github.com/hunter-cdb/hunter/internal/simdb"
	"github.com/hunter-cdb/hunter/internal/tuner"
	"github.com/hunter-cdb/hunter/internal/workload"
)

func shortSession(t *testing.T, budget time.Duration, seed int64) *tuner.Session {
	t.Helper()
	s, err := tuner.NewSession(tuner.Request{
		Workload: workload.TPCC(),
		Budget:   budget,
		Seed:     seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.SampleTarget != 140 {
		t.Errorf("sample target %d, want 140 (Figure 6)", o.SampleTarget)
	}
	if o.TopK != 20 {
		t.Errorf("top-k %d, want 20 (Figure 8)", o.TopK)
	}
	if o.PCAVariance != 0.90 {
		t.Errorf("PCA variance %v, want 0.90", o.PCAVariance)
	}
	if her := (Options{HERWarmup: true}).withDefaults(); !her.DisableGA {
		t.Error("HER warm-up must disable the GA sample factory")
	}
}

func TestHunterProducesDiagnostics(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end run")
	}
	s := shortSession(t, 10*time.Hour, 51)
	h := New(Options{})
	if err := h.Tune(s); err != nil {
		t.Fatal(err)
	}
	if h.PCADim() <= 0 || h.PCADim() > metrics.Count {
		t.Errorf("PCA dim %d out of range", h.PCADim())
	}
	if len(h.TopKnobs()) != 20 {
		t.Errorf("top knobs %d, want 20", len(h.TopKnobs()))
	}
	if h.Reused() {
		t.Error("no registry: must not report reuse")
	}
	// The sifted knobs must all exist in the catalog.
	cat := knob.MySQL()
	for _, n := range h.TopKnobs() {
		if _, ok := cat.Spec(n); !ok {
			t.Errorf("sifted unknown knob %q", n)
		}
	}
}

func TestAblationCombinationsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end runs")
	}
	combos := []Options{
		{DisableGA: true, DisablePCA: true, DisableRF: true, DisableFES: true},
		{DisablePCA: true, DisableRF: true, DisableFES: true},
		{DisableRF: true, DisableFES: true},
		{DisablePCA: true, DisableFES: true},
		{DisablePCA: true, DisableRF: true},
		{},
		{HERWarmup: true},
	}
	for i, o := range combos {
		// Phase 1 alone needs ~7 h (140 valid samples); the budget must
		// leave room for the optimizer and recommender phases.
		s := shortSession(t, 12*time.Hour, int64(60+i))
		h := New(o)
		if err := h.Tune(s); err != nil {
			t.Fatalf("combo %d (%+v): %v", i, o, err)
		}
		best, ok := s.Best()
		if !ok {
			t.Fatalf("combo %d produced no samples", i)
		}
		if fit := s.Fitness(best.Perf); fit <= 0 {
			t.Errorf("combo %d fitness %.3f — no improvement", i, fit)
		}
		if h.PCADim() == 0 {
			t.Fatalf("combo %d never reached the optimizer phase", i)
		}
		// DisablePCA means the recommender works on raw metrics.
		if o.DisablePCA && h.PCADim() != metrics.Count {
			t.Errorf("combo %d: PCA disabled but state dim %d", i, h.PCADim())
		}
		if o.DisableRF && len(h.TopKnobs()) != 65 {
			t.Errorf("combo %d: RF disabled but %d knobs", i, len(h.TopKnobs()))
		}
	}
}

func TestModelReuseEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("two end-to-end runs")
	}
	registry := NewReuseRegistry()
	// The budget must outlast phase 1 (140 valid samples ≈ 7 h) so the
	// Recommender exists to be stored.
	s1 := shortSession(t, 16*time.Hour, 70)
	trained := New(Options{Registry: registry, ReuseTag: "first"})
	if err := trained.Tune(s1); err != nil {
		t.Fatal(err)
	}
	if registry.Len() != 0 {
		t.Fatalf("the run wrote %d models to the registry; only its caller commits", registry.Len())
	}
	m, ok := trained.Model()
	if !ok || m.Signature != "first" || !registry.Commit(m) || registry.Len() != 1 {
		t.Fatalf("training produced no committable model: %v, signature %q, registry holds %d", ok, m.Signature, registry.Len())
	}
	// Second run on the same workload shape: should match and fine-tune.
	s2 := shortSession(t, 16*time.Hour, 71)
	h := New(Options{Registry: registry})
	if err := h.Tune(s2); err != nil {
		t.Fatal(err)
	}
	// Reuse requires identical key knobs and PCA dim; with the same
	// workload and close seeds this usually holds — if it matched, the
	// diagnostic must say so.
	t.Logf("reused=%v (key knobs and state dim matched: %v)", h.Reused(), h.Reused())
}

func TestHunterRespectsRules(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end run")
	}
	rules := knob.NewRules().
		Fix("innodb_doublewrite", 1).
		Range("innodb_io_capacity", 500, 5000)
	s, err := tuner.NewSession(tuner.Request{
		Workload: workload.SysbenchWO(),
		Budget:   6 * time.Hour,
		Rules:    rules,
		Seed:     80,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := New(Options{}).Tune(s); err != nil {
		t.Fatal(err)
	}
	for _, smp := range s.Pool.All() {
		if v := rules.Violations(s.Space.Catalog(), smp.Knobs); len(v) > 0 {
			t.Fatalf("HUNTER stress-tested a rule-violating config: %v", v)
		}
	}
	best, _ := s.DeployBest()
	if best.Knobs["innodb_doublewrite"] != 1 {
		t.Fatal("deployed config violates fixed knob")
	}
}

func TestNameAndInterfaces(t *testing.T) {
	var _ tuner.Tuner = New(Options{})
	if New(Options{}).Name() != "HUNTER" {
		t.Fatal("name wrong")
	}
}

var _ = simdb.MySQL
