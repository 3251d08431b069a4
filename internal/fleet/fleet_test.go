package fleet

import (
	"bytes"
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"github.com/hunter-cdb/hunter/internal/core"
	"github.com/hunter-cdb/hunter/internal/metrics"
	"github.com/hunter-cdb/hunter/internal/ml/ddpg"
	"github.com/hunter-cdb/hunter/internal/parallel"
	"github.com/hunter-cdb/hunter/internal/telemetry"
)

// runFleet builds, runs and renders a fleet, failing the test on any
// fleet-level error.
func runFleet(t *testing.T, cfg Config) (*Fleet, []byte) {
	t.Helper()
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	f.Report().Render(&buf)
	return f, buf.Bytes()
}

// TestDeterminismAcrossWorkers is the fleet determinism golden: the
// rendered fleet report must be byte-identical at 1 and 8 workers, with
// reuse on (the cross-tenant coupling is exactly what could go
// order-dependent). It also pins the barrier rule behind it: a tenant only
// warm-starts from a donor that finished in an earlier round.
func TestDeterminismAcrossWorkers(t *testing.T) {
	cfg := Config{
		Tenants: SyntheticTenants(18, 7),
		Reuse:   true,
		Seed:    7,
		Policy:  Policy{MaxActive: 6}, // several rounds, so later rounds see earlier models
	}
	defer parallel.SetWorkers(parallel.SetWorkers(1))
	f, w1 := runFleet(t, cfg)
	parallel.SetWorkers(8)
	_, w8 := runFleet(t, cfg)
	if !bytes.Equal(w1, w8) {
		t.Fatalf("fleet report differs between 1 and 8 workers:\n--- w1 ---\n%s\n--- w8 ---\n%s", w1, w8)
	}
	if !bytes.Contains(w1, []byte("warm<-")) {
		t.Fatalf("determinism fleet saw no warm starts; the golden is vacuous:\n%s", w1)
	}

	byName := map[string]TenantResult{}
	results := f.Report().TenantResults
	for _, res := range results {
		byName[res.Name] = res
	}
	for _, res := range results {
		if !res.Reused {
			continue
		}
		if res.Round == 0 {
			t.Errorf("round-0 tenant %s warm-started from %q", res.Name, res.ReuseFrom)
		}
		name, sig, _ := strings.Cut(res.ReuseFrom, "@")
		donor, ok := byName[name]
		if !ok || donor.Signature != sig || donor.Status != StatusDone || donor.Round >= res.Round {
			t.Errorf("tenant %s (round %d) warm-started from %q, which is not a tenant of that signature done in an earlier round (found %v: %s %s round %d)",
				res.Name, res.Round, res.ReuseFrom, ok, donor.Signature, donor.Status, donor.Round)
		}
	}
}

// TestCheckpointKillResume is the fleet durability golden: a fleet stopped
// at a round barrier and resumed from its checkpoint must reproduce the
// uninterrupted run's report byte for byte.
func TestCheckpointKillResume(t *testing.T) {
	base := Config{
		Tenants: SyntheticTenants(18, 3),
		Reuse:   true,
		Seed:    3,
		Policy:  Policy{MaxActive: 5},
	}
	golden := base
	golden.CheckpointDir = t.TempDir()
	_, want := runFleet(t, golden)

	stopped := base
	stopped.CheckpointDir = t.TempDir()
	stopped.StopAfterRounds = 2
	f, err := New(stopped)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Run(context.Background()); !errors.Is(err, ErrStopRequested) {
		t.Fatalf("Run with StopAfterRounds returned %v, want ErrStopRequested", err)
	}
	if f.Rounds() != 2 {
		t.Fatalf("stopped after %d rounds, want 2", f.Rounds())
	}

	resumed := stopped
	resumed.StopAfterRounds = 0
	rf, err := Resume(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if err := rf.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	rf.Report().Render(&buf)
	if !bytes.Equal(want, buf.Bytes()) {
		t.Fatalf("resumed report differs from uninterrupted run:\n--- golden ---\n%s\n--- resumed ---\n%s", want, buf.Bytes())
	}

	// A resume under a different config must be refused.
	tampered := resumed
	tampered.Seed = 99
	if _, err := Resume(tampered); err == nil || !strings.Contains(err.Error(), "fingerprint mismatch") {
		t.Fatalf("Resume with tampered seed: err = %v, want fingerprint mismatch", err)
	}
	tampered = resumed
	tampered.Tenants = SyntheticTenants(18, 4)
	if _, err := Resume(tampered); err == nil || !strings.Contains(err.Error(), "fingerprint mismatch") {
		t.Fatalf("Resume with tampered tenants: err = %v, want fingerprint mismatch", err)
	}
}

// TestReuseReducesVirtualTime pins the reuse economics: with the store on,
// the fleet must report a nonzero hit rate and strictly less total virtual
// tuning time than the identical fleet with reuse off.
func TestReuseReducesVirtualTime(t *testing.T) {
	base := Config{Tenants: SyntheticTenants(24, 1), Seed: 1, Policy: Policy{MaxActive: 8}}
	off := base
	f, _ := runFleet(t, off)
	cold := f.Report()

	on := base
	on.Reuse = true
	f, _ = runFleet(t, on)
	warm := f.Report()

	if warm.ReuseHits == 0 {
		t.Fatal("reuse-enabled fleet recorded zero hits")
	}
	if warm.ReuseHitRate <= 0 || warm.ReuseHitRate > 1 {
		t.Fatalf("hit rate %v out of range", warm.ReuseHitRate)
	}
	if warm.TotalVirtualSeconds >= cold.TotalVirtualSeconds {
		t.Fatalf("reuse did not reduce total virtual time: %.0fs with vs %.0fs without",
			warm.TotalVirtualSeconds, cold.TotalVirtualSeconds)
	}
	if cold.ReuseProbes != 0 || cold.ReuseHits != 0 {
		t.Fatalf("reuse-off fleet recorded probes/hits: %+v", cold)
	}
}

// corruptDonor returns a model that spec's session matches but cannot
// restore: its critic is one weight short. Its fitness is unbeatable, so
// no tenant's commit replaces it.
func corruptDonor(t *testing.T, spec TenantSpec) core.Model {
	t.Helper()
	knobs := fleetKnobs(spec.Dialect)
	a, err := ddpg.New(ddpg.Config{StateDim: metrics.Count, ActionDim: len(knobs), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	snap := a.Snapshot()
	snap.Critic = snap.Critic[:len(snap.Critic)-1]
	return core.Model{
		Signature: spec.Signature(), Tag: "corrupt", KnobNames: knobs,
		StateDim: metrics.Count, Fitness: math.MaxFloat64, Snap: snap,
	}
}

// TestUnrestorableDonorRunsCold: every tenant's probe finds a donor that
// its session refuses to restore. No tenant warm-started, so the report
// counts no hit and names no donor.
func TestUnrestorableDonorRunsCold(t *testing.T) {
	cfg := Config{Tenants: SyntheticTenants(4, 9), Reuse: true, Seed: 9, Policy: Policy{MaxActive: 4}}
	for i := range cfg.Tenants {
		// No SLO stop: every session reaches the Recommender and tries
		// the donor.
		cfg.Tenants[i].Target = 0
		cfg.Tenants[i].Budget = 2 * time.Hour
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range cfg.Tenants {
		f.store.Commit(corruptDonor(t, spec))
	}
	if err := f.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	r := f.Report()
	r.Render(&out)
	if r.ReuseProbes != len(cfg.Tenants) || r.ReuseHits != 0 || r.Done != len(cfg.Tenants) {
		t.Fatalf("probes %d hits %d done %d, want %d probes, 0 hits, all done:\n%s",
			r.ReuseProbes, r.ReuseHits, r.Done, len(cfg.Tenants), out.Bytes())
	}
	for _, res := range r.TenantResults {
		if res.Reused || res.ReuseFrom != "" {
			t.Errorf("tenant %s reads warm from %q, but no donor restored", res.Name, res.ReuseFrom)
		}
	}
}

// TestTargetBeforeRecommenderRunsCold: a round-1 tenant whose probe finds
// the round-0 tenant's model but that meets its SLO target in its first
// wave stops before the Recommender, so it never loads the donor.
func TestTargetBeforeRecommenderRunsCold(t *testing.T) {
	tenants := SyntheticTenants(2, 6)
	tenants[1].Dialect, tenants[1].Profile = tenants[0].Dialect, tenants[0].Profile
	tenants[0].Target, tenants[0].Budget = 0, 2*time.Hour
	tenants[1].Target = 1e-9
	f, out := runFleet(t, Config{Tenants: tenants, Reuse: true, Seed: 6, Policy: Policy{MaxActive: 1}})
	r := f.Report()
	first, second := r.TenantResults[0], r.TenantResults[1]
	if r.ReuseStores == 0 || second.Round != 1 || !second.TargetHit || second.Waves != 1 {
		t.Fatalf("premise: want a stored round-0 model and a round-1 tenant that hits its target in one wave:\n%s", out)
	}
	if second.Reused || r.ReuseHits != 0 || r.ReuseProbes != 2 {
		t.Fatalf("tenant %s stopped before the Recommender yet reads reused=%v from %q; probes %d hits %d:\n%s",
			second.Name, second.Reused, second.ReuseFrom, r.ReuseProbes, r.ReuseHits, out)
	}
	if first.Reused {
		t.Fatalf("round-0 tenant %s reads warm", first.Name)
	}
}

// TestAdmissionControl covers the three admission policies and their edge
// cases: queue-overflow rejection, pool-exhaustion eviction (with a
// checkpoint in flight), and a tenant whose clamped budget dies mid-wave.
func TestAdmissionControl(t *testing.T) {
	t.Run("rejection", func(t *testing.T) {
		cfg := Config{
			Tenants: SyntheticTenants(10, 1),
			Seed:    1,
			Policy:  Policy{MaxActive: 4, QueueDepth: 6},
		}
		f, out := runFleet(t, cfg)
		r := f.Report()
		if r.Admitted != 6 || r.Rejected != 4 {
			t.Fatalf("admitted %d rejected %d, want 6/4", r.Admitted, r.Rejected)
		}
		for _, res := range r.TenantResults[6:] {
			if res.Status != StatusRejected || res.Err != ErrRejected.Error() {
				t.Fatalf("tenant %s: %+v, want rejected with typed error", res.Name, res)
			}
		}
		if !bytes.Contains(out, []byte("rejected")) {
			t.Fatal("report does not show rejections")
		}
	})

	t.Run("eviction during checkpoint", func(t *testing.T) {
		// A pool that covers roughly the first round only: later tenants
		// are evicted at scheduling time, while checkpoints keep being
		// written at every barrier. The evictions must land in the
		// checkpoint and survive a resume.
		cfg := Config{
			Tenants:       SyntheticTenants(12, 5),
			Seed:          5,
			Policy:        Policy{MaxActive: 4, TotalVirtualBudget: 14 * time.Hour},
			CheckpointDir: t.TempDir(),
		}
		f, _ := runFleet(t, cfg)
		r := f.Report()
		if r.Evicted == 0 {
			t.Fatalf("no tenant was evicted under a %s pool: %+v", cfg.Policy.TotalVirtualBudget, r)
		}
		for _, res := range r.TenantResults {
			if res.Status == StatusEvicted && res.Err != ErrEvicted.Error() {
				t.Fatalf("evicted tenant %s carries error %q, want %q", res.Name, res.Err, ErrEvicted.Error())
			}
		}
		// The final checkpoint must reproduce the same results, evictions
		// included, without re-running anything.
		rf, err := Resume(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := rf.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		var got, want bytes.Buffer
		rf.Report().Render(&got)
		r.Render(&want)
		if !bytes.Equal(want.Bytes(), got.Bytes()) {
			t.Fatalf("resumed finished fleet differs:\n--- want ---\n%s\n--- got ---\n%s", want.Bytes(), got.Bytes())
		}
	})

	t.Run("budget exhausted mid-wave", func(t *testing.T) {
		// Clamp every tenant to a budget smaller than a single stress wave:
		// sessions exhaust before producing one sample and fail cleanly;
		// the fleet keeps going and accounts the spent time.
		cfg := Config{
			Tenants: SyntheticTenants(4, 1),
			Seed:    1,
			Policy:  Policy{MaxActive: 2, MaxTenantBudget: time.Minute},
		}
		f, _ := runFleet(t, cfg)
		r := f.Report()
		if r.Failed != 4 || r.Done != 0 {
			t.Fatalf("done %d failed %d, want 0/4 under a 1m clamp", r.Done, r.Failed)
		}
		for _, res := range r.TenantResults {
			if res.Budget != time.Minute {
				t.Fatalf("tenant %s granted %s, want clamped 1m", res.Name, res.Budget)
			}
		}
	})
}

// TestRollups checks the fleet telemetry surface: admission counters, the
// per-tenant virtual-time histogram and the shared model gauge.
func TestRollups(t *testing.T) {
	rec := telemetry.New()
	cfg := Config{
		Tenants:  SyntheticTenants(8, 2),
		Reuse:    true,
		Seed:     2,
		Policy:   Policy{MaxActive: 4},
		Recorder: rec,
	}
	f, _ := runFleet(t, cfg)
	r := f.Report()
	if got := rec.Counter("fleet.tenants_admitted").Value(); got != int64(r.Admitted) {
		t.Fatalf("admitted counter %d, want %d", got, r.Admitted)
	}
	if got := rec.Counter("fleet.tenants_done").Value(); got != int64(r.Done) {
		t.Fatalf("done counter %d, want %d", got, r.Done)
	}
	if got := rec.Counter("fleet.rounds").Value(); got != int64(r.Rounds) {
		t.Fatalf("rounds counter %d, want %d", got, r.Rounds)
	}
	h := rec.Histogram("fleet.tenant_virtual_seconds")
	if h.Count() != int64(r.Done+r.Failed) {
		t.Fatalf("histogram holds %d observations, want %d", h.Count(), r.Done+r.Failed)
	}
	if got := rec.Gauge("fleet.reuse_hits").Value(); got != float64(r.ReuseHits) {
		t.Fatalf("reuse_hits gauge %v, want %d", got, r.ReuseHits)
	}
	if got := rec.Gauge("fleet.store_models").Value(); got != float64(f.Store().Len()) || got == 0 {
		t.Fatalf("store_models gauge %v, registry holds %d", got, f.Store().Len())
	}
}

// BenchmarkFleetSessionsPerSecond measures fleet throughput in tenant
// sessions per wall second.
func BenchmarkFleetSessionsPerSecond(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := New(Config{Tenants: SyntheticTenants(32, 1), Reuse: true, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if err := f.Run(context.Background()); err != nil {
			b.Fatal(err)
		}
		r := f.Report()
		if r.Done == 0 {
			b.Fatal("no tenants finished")
		}
		b.ReportMetric(float64(32*b.N)/b.Elapsed().Seconds(), "sessions/s")
	}
}
