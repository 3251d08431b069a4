package core

import (
	"bytes"
	"testing"
	"time"

	"github.com/hunter-cdb/hunter/internal/metrics"
	"github.com/hunter-cdb/hunter/internal/ml/ddpg"
	"github.com/hunter-cdb/hunter/internal/sim"
	"github.com/hunter-cdb/hunter/internal/simdb"
	"github.com/hunter-cdb/hunter/internal/tuner"
	"github.com/hunter-cdb/hunter/internal/workload"
)

// seedPool injects n synthetic samples whose performance depends strongly
// on innodb_buffer_pool_size and innodb_flush_log_at_trx_commit, so RF has
// a clear signal without running any stress tests.
func seedPool(t *testing.T, s *tuner.Session, n int) {
	t.Helper()
	def := s.DefaultPerf
	for i := 0; i < n; i++ {
		pt := s.Space.Random(s.RNG)
		cfg := s.Space.Decode(pt)
		bp := s.Space.Encode(cfg) // normalized, clipped
		var bpU, flushU float64
		for d, name := range s.Space.Names() {
			switch name {
			case "innodb_buffer_pool_size":
				bpU = bp[d]
			case "innodb_flush_log_at_trx_commit":
				flushU = bp[d]
			}
		}
		perf := simdb.Perf{
			ThroughputTPS: def.ThroughputTPS * (1 + bpU + 0.5*flushU + 0.05*s.RNG.Float64()),
			AvgLatencyMs:  def.AvgLatencyMs,
			P95LatencyMs:  def.P95LatencyMs * (1 - 0.4*bpU),
			P99LatencyMs:  def.P99LatencyMs,
		}
		state := metrics.NewVector()
		for j := range state {
			state[j] = perf.ThroughputTPS * float64(j%7+1) * (1 + 0.01*s.RNG.Float64())
		}
		s.Pool.Add(tuner.Sample{State: state, Knobs: cfg, Point: bp, Perf: perf, Step: i + 1})
	}
}

func optimizerSession(t *testing.T) *tuner.Session {
	t.Helper()
	s, err := tuner.NewSession(tuner.Request{
		Workload: workload.TPCC(),
		Budget:   time.Hour,
		Seed:     90,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func TestOptimizerCompressesAndSifts(t *testing.T) {
	s := optimizerSession(t)
	seedPool(t, s, 140)
	opt, err := optimizeSearchSpace(Options{}.withDefaults(), s)
	if err != nil {
		t.Fatal(err)
	}
	if opt.StateDim() <= 0 || opt.StateDim() >= metrics.Count {
		t.Errorf("PCA should compress 63 metrics, got %d", opt.StateDim())
	}
	if opt.Space().Dim() != 20 {
		t.Errorf("sifted dims %d, want 20", opt.Space().Dim())
	}
	// The dominant knob must survive sifting.
	found := false
	for _, n := range opt.Space().Names() {
		if n == "innodb_buffer_pool_size" {
			found = true
		}
	}
	if !found {
		t.Errorf("RF dropped the dominant knob; ranking head: %v", opt.Ranking()[:5])
	}
	// CompressState round trip dims.
	z := opt.CompressState(s.Pool.All()[0].State)
	if len(z) != opt.StateDim() {
		t.Fatalf("compressed dim %d", len(z))
	}
	if got := opt.CompressState(nil); len(got) != opt.StateDim() {
		t.Fatal("nil state must map to zero state of correct dim")
	}
	// EncodeAction matches the narrowed dimensionality.
	best, _ := s.Best()
	if a := opt.EncodeAction(best.Knobs); len(a) != 20 {
		t.Fatalf("encoded action dim %d", len(a))
	}
}

func TestOptimizerBasePinnedToIncumbent(t *testing.T) {
	s := optimizerSession(t)
	seedPool(t, s, 140)
	opt, err := optimizeSearchSpace(Options{}.withDefaults(), s)
	if err != nil {
		t.Fatal(err)
	}
	best, _ := s.Best()
	tuned := map[string]bool{}
	for _, n := range opt.Space().Names() {
		tuned[n] = true
	}
	// Decoding any point must keep dropped knobs at the incumbent's
	// values, not at catalog defaults.
	cfg := opt.Space().Decode(make([]float64, opt.Space().Dim()))
	checked := 0
	for _, name := range s.Space.Names() {
		if tuned[name] {
			continue
		}
		if cfg[name] != best.Knobs[name] {
			t.Errorf("dropped knob %s = %v, want incumbent %v", name, cfg[name], best.Knobs[name])
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no dropped knobs to check")
	}
}

func TestOptimizerDisabledModules(t *testing.T) {
	s := optimizerSession(t)
	seedPool(t, s, 60)
	opt, err := optimizeSearchSpace(Options{DisablePCA: true, DisableRF: true}.withDefaults(), s)
	if err != nil {
		t.Fatal(err)
	}
	if opt.StateDim() != metrics.Count {
		t.Errorf("PCA disabled: state dim %d, want %d", opt.StateDim(), metrics.Count)
	}
	if opt.Space().Dim() != s.Space.Dim() {
		t.Errorf("RF disabled: dims %d, want %d", opt.Space().Dim(), s.Space.Dim())
	}
	if len(opt.Ranking()) != 0 {
		t.Error("no ranking expected when RF is off")
	}
}

func TestOptimizerTooFewSamples(t *testing.T) {
	s := optimizerSession(t)
	seedPool(t, s, 2)
	if _, err := optimizeSearchSpace(Options{}.withDefaults(), s); err == nil {
		t.Fatal("2 samples should be rejected")
	}
}

// TestResumeRecommenderRejectsAgentDims: a checkpoint whose DDPG agent
// was built for another state or action space must fail resume, not
// panic at the agent's first action.
func TestResumeRecommenderRejectsAgentDims(t *testing.T) {
	s := optimizerSession(t)
	seedPool(t, s, 140)
	opts := Options{}.withDefaults()
	opt, err := optimizeSearchSpace(opts, s)
	if err != nil {
		t.Fatal(err)
	}
	sd, ad := opt.StateDim(), opt.Space().Dim()
	for _, dims := range [][2]int{{sd, ad}, {sd + 1, ad}, {sd, ad - 1}} {
		agent, err := ddpg.New(ddpg.Config{StateDim: dims[0], ActionDim: dims[1], Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := agent.SnapshotTo(&buf); err != nil {
			t.Fatal(err)
		}
		st := &recState{Agent: buf.Bytes(), RNG: sim.NewRNG(2).State(), State: make([]float64, sd)}
		_, err = resumeRecommender(opts, s, opt, st)
		if match := dims == [2]int{sd, ad}; (err == nil) != match {
			t.Errorf("agent dims %v against optimizer (%d,%d): resume error %v", dims, sd, ad, err)
		}
	}
}
