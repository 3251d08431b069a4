package rf

import (
	"math"
	"testing"

	"github.com/hunter-cdb/hunter/internal/sim"
)

// synthetic generates y = 3·x0 + x3² − 2·x7 + noise over dim features, so
// features 0, 3 and 7 matter and the rest are inert.
func synthetic(rng *sim.RNG, n, dim int) ([][]float64, []float64) {
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = make([]float64, dim)
		for d := range x[i] {
			x[i][d] = rng.Float64()
		}
		y[i] = 3*x[i][0] + x[i][3]*x[i][3] - 2*x[i][7] + rng.Gaussian(0, 0.05)
	}
	return x, y
}

func TestImportanceFindsRelevantFeatures(t *testing.T) {
	rng := sim.NewRNG(1)
	x, y := synthetic(rng, 300, 20)
	f, err := Train(x, y, Options{Trees: 100}, rng)
	if err != nil {
		t.Fatal(err)
	}
	top := f.TopK(3)
	found := map[int]bool{}
	for _, i := range top {
		found[i] = true
	}
	if !found[0] || !found[7] {
		t.Fatalf("top-3 %v should contain the dominant features 0 and 7 (importance %v)", top, f.Importance())
	}
}

func TestImportanceNormalized(t *testing.T) {
	rng := sim.NewRNG(2)
	x, y := synthetic(rng, 200, 10)
	f, err := Train(x, y, Options{Trees: 50}, rng)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range f.Importance() {
		if v < 0 {
			t.Fatal("importance must be non-negative")
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("importance sums to %v, want 1", sum)
	}
}

func TestPredictTracksFunction(t *testing.T) {
	rng := sim.NewRNG(3)
	x, y := synthetic(rng, 500, 10)
	f, err := Train(x, y, Options{Trees: 100}, rng)
	if err != nil {
		t.Fatal(err)
	}
	var sse, sst float64
	mean := 0.0
	for _, v := range y {
		mean += v
	}
	mean /= float64(len(y))
	for i := range x {
		d := f.Predict(x[i]) - y[i]
		sse += d * d
		dd := y[i] - mean
		sst += dd * dd
	}
	if r2 := 1 - sse/sst; r2 < 0.7 {
		t.Fatalf("training R² = %.3f, forest not learning", r2)
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	x, y := synthetic(sim.NewRNG(4), 150, 8)
	f1, err := Train(x, y, Options{Trees: 30}, sim.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	f2, err := Train(x, y, Options{Trees: 30}, sim.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	for i := range f1.Importance() {
		if f1.Importance()[i] != f2.Importance()[i] {
			t.Fatal("same seed should give identical forests")
		}
	}
}

func TestRankingOrder(t *testing.T) {
	rng := sim.NewRNG(5)
	x, y := synthetic(rng, 300, 12)
	f, err := Train(x, y, Options{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	imp := f.Importance()
	r := f.Ranking()
	for i := 1; i < len(r); i++ {
		if imp[r[i-1]] < imp[r[i]] {
			t.Fatal("ranking not descending")
		}
	}
	if k := f.TopK(100); len(k) != 12 {
		t.Fatalf("TopK over-length should clamp, got %d", len(k))
	}
}

func TestTrainErrors(t *testing.T) {
	if _, err := Train(nil, nil, Options{}, sim.NewRNG(1)); err == nil {
		t.Fatal("empty training set should fail")
	}
	if _, err := Train([][]float64{{1, 2}}, []float64{1, 2}, Options{}, sim.NewRNG(1)); err == nil {
		t.Fatal("length mismatch should fail")
	}
	if _, err := Train([][]float64{{1, 2}, {1}}, []float64{1, 2}, Options{}, sim.NewRNG(1)); err == nil {
		t.Fatal("ragged rows should fail")
	}
}

func TestConstantLabels(t *testing.T) {
	rng := sim.NewRNG(6)
	x := make([][]float64, 50)
	y := make([]float64, 50)
	for i := range x {
		x[i] = []float64{rng.Float64(), rng.Float64()}
		y[i] = 42
	}
	f, err := Train(x, y, Options{Trees: 10}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Predict([]float64{0.5, 0.5}); got != 42 {
		t.Fatalf("constant labels should predict 42, got %v", got)
	}
}
