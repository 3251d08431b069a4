package mathx

import (
	"fmt"
	"math"
	"testing"

	"github.com/hunter-cdb/hunter/internal/sim"
)

// batchOperand draws n values that are mostly Gaussian but include exact
// +0 and −0, so products of signed zeros reach the accumulators and a
// kernel that drops an explicit `0 +` or reorders a sum shows up in the
// bits.
func batchOperand(rng *sim.RNG, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		switch rng.Intn(8) {
		case 0:
			s[i] = 0
		case 1:
			s[i] = math.Copysign(0, -1)
		default:
			s[i] = rng.Gaussian(0, 1)
		}
	}
	return s
}

// TestGemmMatchesGemvRowByRow pins each minibatch kernel bit for bit to
// its single-sample counterpart applied to one batch row at a time, in
// batch order, over every tile remainder: batch sizes 1–9 and 32, and
// input/output widths that include the layer shapes the callers build
// (HUNTER's 6/26 → 20, the fleet tenants' 63/79 → 16, CDBTune's 63/128 →
// 65). Four outputs make GemmTIn's first four-term pass the whole sum, so
// an all −0 chain there must still come out +0, as it does from
// GemvTAccum's zeroed buffer. GemmTIn is also run on an interior column
// range and must leave the columns outside it untouched.
func TestGemmMatchesGemvRowByRow(t *testing.T) {
	rng := sim.NewRNG(41)
	ns := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 32}
	for _, in := range []int{1, 3, 6, 26, 63, 64, 79, 128} {
		for _, out := range []int{1, 2, 3, 4, 16, 20, 64, 65} {
			for _, n := range ns {
				name := fmt.Sprintf("n=%d in=%d out=%d", n, in, out)
				w := batchOperand(rng, in*out)
				bias := batchOperand(rng, out)
				x := batchOperand(rng, n*in)
				g := batchOperand(rng, n*out)
				gw0 := batchOperand(rng, in*out)

				wantY := make([]float64, n*out)
				wantGW := append([]float64(nil), gw0...)
				wantDin := make([]float64, n*in)
				for r := 0; r < n; r++ {
					GemvBias(w, in, out, x[r*in:(r+1)*in], bias, wantY[r*out:(r+1)*out])
					OuterAccum(wantGW, in, out, g[r*out:(r+1)*out], x[r*in:(r+1)*in])
					GemvTAccum(w, in, out, g[r*out:(r+1)*out], wantDin[r*in:(r+1)*in])
				}

				y := make([]float64, n*out)
				GemmBias(w, in, out, x, bias, y, n)
				bitEqual(t, name+" GemmBias", y, wantY)

				gw := append([]float64(nil), gw0...)
				GemmOuterAccum(gw, in, out, g, x, n)
				bitEqual(t, name+" GemmOuterAccum", gw, wantGW)

				din := batchOperand(rng, n*in) // stale contents are overwritten
				GemmTIn(w, in, out, g, din, n, 0, in)
				bitEqual(t, name+" GemmTIn", din, wantDin)

				lo, hi := in/3, in-in/4
				const sentinel = 12345.0
				for i := range din {
					din[i] = sentinel
				}
				GemmTIn(w, in, out, g, din, n, lo, hi)
				for r := 0; r < n; r++ {
					for i := 0; i < in; i++ {
						want := sentinel
						if i >= lo && i < hi {
							want = wantDin[r*in+i]
						}
						if got := din[r*in+i]; math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%s GemmTIn columns [%d,%d): row %d column %d = %v, want %v", name, lo, hi, r, i, got, want)
						}
					}
				}
			}
		}
	}
}
