package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"github.com/hunter-cdb/hunter/internal/fleet"
	"github.com/hunter-cdb/hunter/internal/simdb"
	"github.com/hunter-cdb/hunter/internal/tuner"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestRecTimeHours(t *testing.T) {
	def := simdb.Perf{ThroughputTPS: 100, P95LatencyMs: 10}
	perf := func(tps float64) simdb.Perf { return simdb.Perf{ThroughputTPS: tps, P95LatencyMs: 10} }
	// With alpha 1 the fitness is the relative throughput gain: 0.5, 0.99
	// and 1.0 at 1h, 3h and 7h. 98% of 1.0 is first reached at 3h.
	curve := tuner.Curve{
		{Time: time.Hour, Perf: perf(150), Step: 2},
		{Time: 3 * time.Hour, Perf: perf(199), Step: 6},
		{Time: 7 * time.Hour, Perf: perf(200), Step: 14},
	}
	if got := recTimeHours(curve, def, 1); !near(got, 3) {
		t.Fatalf("recTimeHours = %v, want 3", got)
	}
	if got := recTimeHours(nil, def, 1); got != 0 {
		t.Fatalf("empty curve: recTimeHours = %v, want 0", got)
	}
}

func TestFleetTotals(t *testing.T) {
	results := []fleet.TenantResult{
		{Status: fleet.StatusDone, Steps: 10, Waves: 5, Elapsed: 2 * time.Hour},
		{Status: fleet.StatusFailed, Steps: 4, Waves: 2, Elapsed: 6 * time.Hour},
		{Status: fleet.StatusRejected},
		{Status: fleet.StatusDone, Steps: 20, Waves: 10, Elapsed: 3 * time.Hour},
	}
	steps, waves, done, hours := fleetTotals(results)
	if steps != 34 || waves != 17 {
		t.Fatalf("steps, waves = %d, %d; want 34, 17", steps, waves)
	}
	// Only finished tenants count toward the mean elapsed hours.
	if len(done) != 2 || !near(hours, 2.5) {
		t.Fatalf("done %d, hours %v; want 2, 2.5", len(done), hours)
	}
	if _, _, done, hours := fleetTotals(nil); done != nil || hours != 0 {
		t.Fatalf("no tenants: done %v hours %v", done, hours)
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{0.04}, 0.04},
		{[]float64{0.046, 0.040, 0.075}, 0.046},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); !near(got, c.want) {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestTrimmedMean(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{2, 4}, 3},
		{[]float64{9, 1, 5}, 5},
		{[]float64{100, 10, 20, 0}, 15},
		{[]float64{60, 61, 62, 63, 5}, 61},
	} {
		if got := trimmedMean(c.xs); !near(got, c.want) {
			t.Errorf("trimmedMean(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// The expected cut points come from Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5, 1}, 0, 3, 6},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 5.5/5.5) {
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestStrays(t *testing.T) {
	if strays([]float64{100, 95, 105, 109}) {
		t.Error("values within a tenth of the median flagged")
	}
	if !strays([]float64{100, 101, 99, 112}) {
		t.Error("a value 11% above the median not flagged")
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 50}, {19, 50}, {20, 50}, {40, 75}, {100, 90}, {520, 98}, {1000, 99}, {10000, 99.9}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	if s := summarize(xs); s.P50 != 50 || s.TailAt != 90 || !near(s.Tail, 90) || s.N != 101 {
		t.Errorf("summarize = %+v", s)
	}
}

func TestSelfTimes(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{ID: 0, Parent: -1, Name: "bench.run", Start: 0, End: ms(100)},
		{ID: 1, Parent: 0, Name: "fleet.Run", Start: ms(10), End: ms(90)},
		// Two parallel tenants overlapping on 40..50: covered once.
		{ID: 2, Parent: 1, Name: "tuner.session", Start: ms(20), End: ms(50)},
		{ID: 3, Parent: 1, Name: "tuner.session", Start: ms(40), End: ms(70)},
		// A child sticking out of its parent only covers the overlap.
		{ID: 4, Parent: 3, Name: "tuner.wave", Start: ms(60), End: ms(80)},
	}
	want := []time.Duration{ms(20), ms(30), ms(30), ms(20), ms(20)}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d self time %v, want %v", i, got[i], want[i])
		}
	}
	rows := selfTable(&tracer{spans: spans})
	byMod := map[string]selfRow{}
	for _, r := range rows {
		byMod[r.Module] = r
	}
	if r := byMod["unattributed"]; !near(r.SelfS, 0.020) || !near(r.Share, 0.2) {
		t.Errorf("unattributed row %+v", r)
	}
	if r := byMod["tuner"]; !near(r.SelfS, 0.070) || r.Spans != 3 {
		t.Errorf("tuner row %+v", r)
	}
}

func TestFailureShare(t *testing.T) {
	if got := failureShare(32, 8); !near(got, 0.25) {
		t.Errorf("failureShare(32, 8) = %v", got)
	}
	if got := failureShare(0, 0); got != 0 {
		t.Errorf("failureShare(0, 0) = %v", got)
	}
	pool := []tuner.Sample{
		{Time: time.Hour, Knobs: map[string]float64{"a": 1}},
		{Time: time.Hour, Knobs: map[string]float64{"a": 1}, Perf: simdb.FailedPerf()},
		{Time: time.Hour, Knobs: map[string]float64{"a": 2}},
		{Time: 2 * time.Hour, Knobs: map[string]float64{"a": 1}},
	}
	if got := bootFailShare(pool); !near(got, 0.25) {
		t.Errorf("bootFailShare = %v, want 0.25", got)
	}
	// The repeat inside the first wave counts; the one in a later wave
	// does not.
	if got := dupConfigShare(pool); !near(got, 0.25) {
		t.Errorf("dupConfigShare = %v, want 0.25", got)
	}
}

func TestSessionsPerRun(t *testing.T) {
	w := &workloadDef{nominal: 5 * time.Second}
	if got := w.sessionsPerRun(20 * time.Second); got != 4 {
		t.Errorf("sessionsPerRun(20s) = %d, want 4", got)
	}
	if got := w.sessionsPerRun(time.Second); got != 1 {
		t.Errorf("sessionsPerRun(1s) = %d, want 1", got)
	}
}

// BENCHMARK.json must describe exactly the workloads and metrics this
// program runs and prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, here %s: %s", i, b.Workloads[i], w.name, w.why)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d here", len(b.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		if got := b.EndToEnd[i]; got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, here %+v", i, got, d)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d here", len(b.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if got := b.PerLayer[i]; got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, here %+v", i, got, d)
		}
	}
}
