package tuner

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"github.com/hunter-cdb/hunter/internal/sim"
	"github.com/hunter-cdb/hunter/internal/simdb"
)

func TestDefaultStepCostsMatchTable1(t *testing.T) {
	c := DefaultStepCosts()
	if c.WorkloadExecution != time.Duration(142.7*float64(time.Second)) {
		t.Fatalf("execution = %v", c.WorkloadExecution)
	}
	if c.KnobsDeployment != time.Duration(21.3*float64(time.Second)) {
		t.Fatalf("deployment = %v", c.KnobsDeployment)
	}
	if c.ModelUpdate != 71*time.Millisecond || c.MetricsCollection != 200*time.Microsecond {
		t.Fatal("model update / metrics collection wrong")
	}
	total := c.StepTotal()
	if total < 163*time.Second || total > 166*time.Second {
		t.Fatalf("step total %v, want ≈164 s", total)
	}
}

func TestSharedPoolBestAndSort(t *testing.T) {
	p := NewSharedPool()
	def := simdb.Perf{ThroughputTPS: 100, P95LatencyMs: 100}
	if len(p.SortedByFitness(def, 0.5)) != 0 {
		t.Fatal("empty pool has no best")
	}
	p.Add(
		Sample{Perf: simdb.Perf{ThroughputTPS: 110, P95LatencyMs: 90}, Step: 1},
		Sample{Perf: simdb.Perf{ThroughputTPS: 150, P95LatencyMs: 60}, Step: 2},
		Sample{Perf: simdb.FailedPerf(), Step: 3},
	)
	sorted := p.SortedByFitness(def, 0.5)
	if sorted[0].Step != 2 || sorted[len(sorted)-1].Step != 3 {
		t.Fatal("sort order wrong")
	}
	if p.Len() != 3 {
		t.Fatalf("len = %d", p.Len())
	}
}

func TestCurveAtAndRecommendationTime(t *testing.T) {
	def := simdb.Perf{ThroughputTPS: 100, P95LatencyMs: 100}
	c := Curve{
		{Time: time.Hour, Perf: simdb.Perf{ThroughputTPS: 120, P95LatencyMs: 90}, Step: 5},
		{Time: 3 * time.Hour, Perf: simdb.Perf{ThroughputTPS: 199, P95LatencyMs: 51}, Step: 20},
		{Time: 10 * time.Hour, Perf: simdb.Perf{ThroughputTPS: 200, P95LatencyMs: 50}, Step: 80},
	}
	if _, ok := c.At(30 * time.Minute); ok {
		t.Fatal("no data before first point")
	}
	p, ok := c.At(2 * time.Hour)
	if !ok || p.ThroughputTPS != 120 {
		t.Fatalf("At(2h) = %+v", p)
	}
	// The 3 h point is within 98% of final fitness, so recommendation
	// time is 3 h, not 10 h.
	rt, step := c.RecommendationTime(def, 0.5, 0.98)
	if rt != 3*time.Hour || step != 20 {
		t.Fatalf("recommendation time %v step %d", rt, step)
	}
	final, ok := c.Final()
	if !ok || final.Step != 80 {
		t.Fatal("final wrong")
	}
	var empty Curve
	if _, ok := empty.Final(); ok {
		t.Fatal("empty curve has no final")
	}
}

func TestLatinHypercubeStratification(t *testing.T) {
	rng := sim.NewRNG(1)
	n, dim := 16, 3
	pts := LatinHypercube(n, dim, rng)
	if len(pts) != n {
		t.Fatalf("points %d", len(pts))
	}
	for d := 0; d < dim; d++ {
		vals := make([]float64, n)
		for i := range pts {
			vals[i] = pts[i][d]
		}
		sort.Float64s(vals)
		for i, v := range vals {
			lo, hi := float64(i)/float64(n), float64(i+1)/float64(n)
			if v < lo || v >= hi {
				t.Fatalf("dimension %d not stratified: value %d = %v not in [%v,%v)", d, i, v, lo, hi)
			}
		}
	}
	if LatinHypercube(0, 3, rng) != nil {
		t.Fatal("n=0 should return nil")
	}
}

func TestStateNormalizer(t *testing.T) {
	n := NewStateNormalizer(2)
	data := [][]float64{{10, 1000}, {20, 2000}, {30, 3000}, {40, 4000}}
	for _, x := range data {
		n.Observe(x)
	}
	out := n.Normalize([]float64{25, 2500})
	for i, v := range out {
		if math.Abs(v) > 0.5 {
			t.Fatalf("mean input should normalize near zero, dim %d = %v", i, v)
		}
	}
	// Extreme values clamp at ±5.
	ext := n.Normalize([]float64{1e12, -1e12})
	if ext[0] != 5 || ext[1] != -5 {
		t.Fatalf("clamping broken: %v", ext)
	}
}

func TestPerturbPointBoundsProperty(t *testing.T) {
	f := func(seed int64, sigmaRaw uint8) bool {
		rng := sim.NewRNG(seed)
		sigma := float64(sigmaRaw) / 64
		p := make([]float64, 6)
		for i := range p {
			p[i] = rng.Float64()
		}
		out := PerturbPoint(p, sigma, rng)
		if len(out) != len(p) {
			return false
		}
		for _, v := range out {
			if v < 0 || v > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestFitnessData pins the GP training set: the whole pool in pool order
// up to 240 samples; beyond that the 120 fittest (stable by pool order)
// followed by the 120 most recent. best is the first maximum of y.
func TestFitnessData(t *testing.T) {
	s := newTestSession(t, 1, time.Hour)
	s.Pool = NewSharedPool()
	def := s.DefaultPerf
	// gain i is sample i's throughput gain over the default; samples 2
	// and 4 tie for the best among the first five.
	gain := func(i int) float64 {
		if i == 2 || i == 4 {
			return 0.9
		}
		return float64((i*7919)%283) / 1000
	}
	add := func(from, to int) {
		for i := from; i < to; i++ {
			perf := def
			perf.ThroughputTPS *= 1 + gain(i)
			s.Pool.Add(Sample{Point: []float64{float64(i)}, Perf: perf, Step: i})
		}
	}
	check := func(want []int, wantBest int) {
		t.Helper()
		x, y, best := FitnessData(s)
		if len(x) != len(want) || len(y) != len(want) {
			t.Fatalf("%d rows and %d labels, want %d", len(x), len(y), len(want))
		}
		all := s.Pool.All()
		for k, i := range want {
			if x[k][0] != float64(i) || y[k] != s.Fitness(all[i].Perf) {
				t.Fatalf("row %d holds sample %v (fitness %v), want sample %d (fitness %v)", k, x[k][0], y[k], i, s.Fitness(all[i].Perf))
			}
		}
		if best != wantBest {
			t.Fatalf("best = %d, want %d", best, wantBest)
		}
	}

	add(0, 5)
	check([]int{0, 1, 2, 3, 4}, 2)

	const n = 300
	add(5, n)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	all := s.Pool.All()
	sort.SliceStable(order, func(a, b int) bool { return s.Fitness(all[order[a]].Perf) > s.Fitness(all[order[b]].Perf) })
	want := append([]int(nil), order[:120]...)
	for i := n - 120; i < n; i++ {
		want = append(want, i)
	}
	check(want, 0)
	if want[0] != 2 || want[1] != 4 {
		t.Fatalf("fittest samples %v, want the tie 2, 4 first", want[:2])
	}
}
