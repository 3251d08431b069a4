package pca

import (
	"testing"

	"github.com/hunter-cdb/hunter/internal/parallel"
	"github.com/hunter-cdb/hunter/internal/sim"
)

// benchFit compresses the paper-scale metric matrix — 63 metrics × 500
// observations (§3.2.1) — at the given worker count. The Serial variant
// is the single-worker baseline.
func benchFit(b *testing.B, workers int) {
	defer parallel.SetWorkers(parallel.SetWorkers(workers))
	rng := sim.NewRNG(1)
	rows := make([][]float64, 500)
	for i := range rows {
		rows[i] = make([]float64, 63)
		for j := range rows[i] {
			base := rng.Gaussian(0, 1)
			rows[i][j] = base*float64(j%9+1) + rng.Gaussian(0, 0.5)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Fit(rows, 0.90, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPCAFit(b *testing.B)       { benchFit(b, 0) }
func BenchmarkPCAFitSerial(b *testing.B) { benchFit(b, 1) }
