package rf

import (
	"testing"

	"github.com/hunter-cdb/hunter/internal/parallel"
	"github.com/hunter-cdb/hunter/internal/sim"
)

// benchTrain fits the paper-scale forest — 200 trees over 140 samples ×
// 70 features (the Search Space Optimizer's workload) — at the given
// worker count. The Serial variant is the single-worker baseline.
func benchTrain(b *testing.B, workers int) {
	defer parallel.SetWorkers(parallel.SetWorkers(workers))
	rng := sim.NewRNG(1)
	x, y := synthetic(rng, 140, 70)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(x, y, Options{Trees: 200}, sim.NewRNG(2)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkForestFit(b *testing.B)       { benchTrain(b, 0) }
func BenchmarkForestFitSerial(b *testing.B) { benchTrain(b, 1) }
