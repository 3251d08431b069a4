package mathx

import (
	"fmt"
	"testing"

	"github.com/hunter-cdb/hunter/internal/sim"
)

// The DDPG layer shapes at batch 32: the hybrid session's actor (6 → 64 →
// 64 → 20) and critic (26 → 64 → 64 → 1). benchGemm reports each
// minibatch kernel's cost per multiply-add.
var gemmShapes = []struct{ in, out int }{{6, 64}, {26, 64}, {64, 64}, {64, 20}, {64, 1}}

func benchGemm(b *testing.B, kernel func(w, x, g, y []float64, in, out, n int)) {
	const n = 32
	for _, sh := range gemmShapes {
		b.Run(fmt.Sprintf("%dx%d", sh.in, sh.out), func(b *testing.B) {
			rng := sim.NewRNG(1)
			w := randSlice(rng, sh.in*sh.out)
			x := randSlice(rng, n*sh.in)
			g := randSlice(rng, n*sh.out)
			y := make([]float64, n*max(sh.in, sh.out))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				kernel(w, x, g, y, sh.in, sh.out, n)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n*sh.in*sh.out), "ns/madd")
		})
	}
}

func randSlice(rng *sim.RNG, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = rng.Gaussian(0, 1)
	}
	return s
}

func BenchmarkGemmBias(b *testing.B) {
	benchGemm(b, func(w, x, g, y []float64, in, out, n int) { GemmBias(w, in, out, x, g[:out], y, n) })
}

func BenchmarkGemmOuterAccum(b *testing.B) {
	benchGemm(b, func(w, x, g, y []float64, in, out, n int) { GemmOuterAccum(w, in, out, g, x, n) })
}

func BenchmarkGemmTIn(b *testing.B) {
	benchGemm(b, func(w, x, g, y []float64, in, out, n int) { GemmTIn(w, in, out, g, y, n, 0, in) })
}
