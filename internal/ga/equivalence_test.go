package ga

import (
	"math"
	"reflect"
	"testing"

	"github.com/hunter-cdb/hunter/internal/parallel"
)

// rastrigin is a deterministic multi-modal fitness surface (negated so
// the GA maximizes toward 0 at the all-0.5 point).
func rastrigin(genes []float64) float64 {
	var s float64
	for _, g := range genes {
		x := (g - 0.5) * 10
		s += x*x - 10*math.Cos(2*math.Pi*x) + 10
	}
	return -s
}

// evolve runs a full ask → evaluate → tell loop and returns every
// generation's genes plus the final best individual.
func evolve(t *testing.T, workers int) ([][][]float64, Individual) {
	t.Helper()
	defer parallel.SetWorkers(parallel.SetWorkers(workers))
	g, err := New(Config{Dim: 24, PopSize: 16, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	var gens [][][]float64
	for gen := 0; gen < 12; gen++ {
		genes := g.Ask(16)
		fit := make([]float64, len(genes))
		for i, gs := range genes {
			fit[i] = rastrigin(gs)
		}
		if err := g.Tell(genes, fit); err != nil {
			t.Fatal(err)
		}
		gens = append(gens, genes)
	}
	best, ok := g.Best()
	if !ok {
		t.Fatal("no best individual after evolution")
	}
	return gens, best
}

// TestEvolutionEquivalentAcrossWorkers proves a full GA evolution is
// bit-identical for 1 worker and for many workers: every generation's bred
// genes and the final best individual match exactly.
func TestEvolutionEquivalentAcrossWorkers(t *testing.T) {
	serialGens, serialBest := evolve(t, 1)
	for _, w := range []int{2, 8} {
		parGens, parBest := evolve(t, w)
		if !reflect.DeepEqual(parGens, serialGens) {
			t.Fatalf("workers %d: bred generations diverged from serial run", w)
		}
		if !reflect.DeepEqual(parBest, serialBest) {
			t.Fatalf("workers %d: best individual %+v != %+v", w, parBest, serialBest)
		}
	}
}
