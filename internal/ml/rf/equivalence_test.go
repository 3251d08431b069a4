package rf

import (
	"reflect"
	"testing"

	"github.com/hunter-cdb/hunter/internal/parallel"
	"github.com/hunter-cdb/hunter/internal/sim"
)

// TestTrainEquivalentAcrossWorkers proves the tentpole determinism
// property: the same seed yields bit-identical forests — tree structures,
// importance vector, and predictions — for 1 worker and for many workers,
// across several seeds.
func TestTrainEquivalentAcrossWorkers(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 1337} {
		gen := sim.NewRNG(seed)
		x, y := synthetic(gen, 140, 20)

		train := func(workers int) *Forest {
			defer parallel.SetWorkers(parallel.SetWorkers(workers))
			f, err := Train(x, y, Options{Trees: 60}, sim.NewRNG(seed+1000))
			if err != nil {
				t.Fatal(err)
			}
			return f
		}
		serial := train(1)
		for _, w := range []int{2, 8} {
			par := train(w)
			if !reflect.DeepEqual(serial.trees, par.trees) {
				t.Fatalf("seed %d workers %d: tree structures differ", seed, w)
			}
			if !reflect.DeepEqual(serial.importance, par.importance) {
				t.Fatalf("seed %d workers %d: importance differs:\n%v\n%v",
					seed, w, serial.importance, par.importance)
			}
			probe := make([]float64, 20)
			for i := range probe {
				probe[i] = gen.Float64()
			}
			if serial.Predict(probe) != par.Predict(probe) {
				t.Fatalf("seed %d workers %d: predictions differ", seed, w)
			}
		}
	}
}
