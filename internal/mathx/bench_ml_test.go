package mathx

import (
	"testing"

	"github.com/hunter-cdb/hunter/internal/parallel"
	"github.com/hunter-cdb/hunter/internal/sim"
)

// benchMul measures the current (blocked, possibly parallel) kernel;
// benchMulBaseline measures the seed repository's naive serial loop on
// the same operands, so one run gives the before/after comparison.
func benchMul(b *testing.B, n, workers int) {
	defer parallel.SetWorkers(parallel.SetWorkers(workers))
	rng := sim.NewRNG(1)
	x := randMatrix(rng, n, n)
	y := randMatrix(rng, n, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = x.Mul(y)
	}
}

func benchMulBaseline(b *testing.B, n int) {
	rng := sim.NewRNG(1)
	x := randMatrix(rng, n, n)
	y := randMatrix(rng, n, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = mulNaive(x, y)
	}
}

func BenchmarkMatrixMul64(b *testing.B)           { benchMul(b, 64, 0) }
func BenchmarkMatrixMul64Serial(b *testing.B)     { benchMul(b, 64, 1) }
func BenchmarkMatrixMul64Baseline(b *testing.B)   { benchMulBaseline(b, 64) }
func BenchmarkMatrixMul256(b *testing.B)          { benchMul(b, 256, 0) }
func BenchmarkMatrixMul256Serial(b *testing.B)    { benchMul(b, 256, 1) }
func BenchmarkMatrixMul256Baseline(b *testing.B)  { benchMulBaseline(b, 256) }
func BenchmarkMatrixMul1024(b *testing.B)         { benchMul(b, 1024, 0) }
func BenchmarkMatrixMul1024Serial(b *testing.B)   { benchMul(b, 1024, 1) }
func BenchmarkMatrixMul1024Baseline(b *testing.B) { benchMulBaseline(b, 1024) }
