package hunter_test

import (
	"context"
	"math"
	"testing"
	"time"

	"github.com/hunter-cdb/hunter"
)

func TestTuneQuickstart(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end tuning run")
	}
	res, err := hunter.Tune(hunter.Request{
		Dialect:  hunter.MySQL,
		Workload: hunter.TPCC(),
		Budget:   8 * time.Hour,
		Clones:   2,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fitness <= 0.2 {
		t.Errorf("fitness %.3f too low for an 8-hour run", res.Fitness)
	}
	if res.BestPerf.ThroughputTPS <= res.DefaultPerf.ThroughputTPS {
		t.Error("recommended config does not beat default throughput")
	}
	if res.Steps <= 0 || res.Elapsed <= 0 || len(res.Curve) == 0 {
		t.Errorf("result incomplete: %+v", res)
	}
	if res.RecommendationTime > res.Elapsed {
		t.Error("recommendation time after end of run")
	}
	if res.CompressedStateDim <= 0 || len(res.TopKnobs) == 0 {
		t.Error("optimizer diagnostics missing")
	}
	for _, name := range res.TopKnobs {
		if _, ok := res.Best[name]; !ok {
			t.Errorf("recommended config missing sifted knob %q", name)
		}
	}
}

func TestTuneValidation(t *testing.T) {
	valid := func(edit func(*hunter.Request)) hunter.Request {
		req := hunter.Request{Workload: hunter.TPCC(), Budget: time.Hour, Seed: 1}
		edit(&req)
		return req
	}
	cases := []struct {
		name string
		req  hunter.Request
	}{
		{"no workload", hunter.Request{}},
		{"NaN alpha", valid(func(r *hunter.Request) { r.Rules = hunter.NewRules().SetAlpha(math.NaN()) })},
		{"NaN range bound", valid(func(r *hunter.Request) {
			r.Rules = hunter.NewRules().Range("innodb_io_capacity", 100, math.NaN())
		})},
		{"NaN guard margin", valid(func(r *hunter.Request) {
			r.Safety = &hunter.SafetyOptions{Guardrails: true, Margin: math.NaN()}
		})},
	}
	for _, c := range cases {
		_, err := hunter.Tune(c.req)
		if err == nil {
			t.Errorf("%s: request should fail validation", c.name)
			continue
		}
		t.Logf("%s: %v", c.name, err)
	}
}

func TestTuneRespectsRules(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end tuning run")
	}
	rules := hunter.NewRules().
		Fix("innodb_adaptive_hash_index", 0).
		Range("innodb_buffer_pool_size", 1<<30, 4<<30)
	res, err := hunter.Tune(hunter.Request{
		Dialect:  hunter.MySQL,
		Workload: hunter.SysbenchRW(),
		Rules:    rules,
		Budget:   5 * time.Hour,
		Seed:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best["innodb_adaptive_hash_index"] != 0 {
		t.Error("fixed knob violated in recommendation")
	}
	if bp := res.Best["innodb_buffer_pool_size"]; bp < 1<<30 || bp > 4<<30 {
		t.Errorf("range rule violated: buffer pool %.0f", bp)
	}
}

func TestTuneContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// A cancelled context stops the run immediately; with no samples the
	// deploy step must fail cleanly rather than panic.
	_, err := hunter.TuneContext(ctx, hunter.Request{
		Dialect:  hunter.MySQL,
		Workload: hunter.TPCC(),
		Budget:   time.Hour,
		Seed:     3,
	})
	if err == nil {
		t.Fatal("cancelled-before-start run should error (nothing to deploy)")
	}
}

func TestCatalogExposure(t *testing.T) {
	my := hunter.Catalog(hunter.MySQL)
	pg := hunter.Catalog(hunter.Postgres)
	if len(my) != 70 || len(pg) != 70 {
		t.Fatalf("catalog sizes %d/%d, want 70/70", len(my), len(pg))
	}
	if _, err := hunter.InstanceTypeByName("F"); err != nil {
		t.Fatal(err)
	}
	if _, err := hunter.InstanceTypeByName("?"); err == nil {
		t.Fatal("unknown type should error")
	}
	ct := hunter.CustomInstanceType("x", 2, 4)
	if ct.Cores != 2 {
		t.Fatal("custom type wrong")
	}
}

func TestWorkloadConstructors(t *testing.T) {
	for _, w := range []*hunter.Workload{
		hunter.TPCC(), hunter.SysbenchRO(), hunter.SysbenchWO(),
		hunter.SysbenchRW(), hunter.Production(), hunter.SysbenchRWRatio(4, 1),
	} {
		if err := w.Validate(); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
	}
}
