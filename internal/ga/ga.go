// Package ga implements the genetic algorithm of the Sample Factory
// (§3.1, Algorithm 1). Individuals are configurations encoded as
// normalized points in [0,1]^m; fitness is the Eq. 1 reward measured by
// stress-testing. The GA runs in an ask/tell loop so the Controller can
// evaluate each generation's individuals on (possibly many parallel)
// cloned instances before the next generation is bred.
package ga

import (
	"fmt"
	"math"

	"github.com/hunter-cdb/hunter/internal/sim"
)

// Individual is one evaluated configuration.
type Individual struct {
	Genes   []float64
	Fitness float64
}

// Config sets the GA hyper-parameters.
type Config struct {
	// Dim is the number of genes (tunable knobs).
	Dim int
	// PopSize is n in Algorithm 1 — individuals bred per generation.
	PopSize int
	// MutationProb is β — per-gene probability of mutation.
	MutationProb float64
	Seed         int64
}

// mutationScale is the Gaussian perturbation width of a mutated gene;
// with probability ½ a mutated gene is resampled uniformly instead, which
// keeps global exploration alive.
const mutationScale float64 = 0.15

func (c Config) withDefaults() Config {
	if c.PopSize == 0 {
		c.PopSize = 20
	}
	if c.MutationProb == 0 {
		// β: with ~65 genes this mutates 2–3 knobs per child, enough to
		// explore without destroying the parents' structure (the reason
		// GA samples concentrate near the best, Figure 5).
		c.MutationProb = 0.04
	}
	return c
}

// GA is the genetic sampler.
type GA struct {
	cfg     Config
	rng     *sim.RNG
	pop     []Individual
	asked   int
	evals   int
	started bool
}

// New creates a GA over dim-dimensional individuals.
func New(cfg Config) (*GA, error) {
	cfg = cfg.withDefaults()
	if cfg.Dim <= 0 {
		return nil, fmt.Errorf("ga: dimension must be positive")
	}
	if cfg.MutationProb < 0 || cfg.MutationProb > 1 {
		return nil, fmt.Errorf("ga: mutation probability %g outside [0,1]", cfg.MutationProb)
	}
	return &GA{cfg: cfg, rng: sim.NewRNG(cfg.Seed)}, nil
}

// Ask proposes n individuals to evaluate. The first generation is random
// (Algorithm 1's Initialization); later generations are bred by
// fitness-proportional selection, prefix crossover and mutation.
func (g *GA) Ask(n int) [][]float64 {
	if n <= 0 {
		n = g.cfg.PopSize
	}
	out := make([][]float64, n)
	// One flat block backs the whole generation: two allocations per Ask
	// instead of one per child. Carved slices are capacity-capped and the
	// RNG draw order is identical to the per-child allocation it replaces.
	block := make([]float64, n*g.cfg.Dim)
	carve := func() []float64 {
		s := block[:g.cfg.Dim:g.cfg.Dim]
		block = block[g.cfg.Dim:]
		return s
	}
	if !g.started || len(g.pop) < 2 {
		for i := range out {
			out[i] = carve()
			g.fillRandom(out[i])
		}
		g.started = true
		g.asked += n
		return out
	}
	for i := range out {
		child := carve()
		a := g.selectOne()
		b := g.selectOne()
		g.crossoverInto(child, g.pop[a].Genes, g.pop[b].Genes)
		g.mutate(child)
		out[i] = child
	}
	g.asked += n
	return out
}

// Tell reports evaluated fitnesses. Per Algorithm 1 the best individual is
// retained (elitism) and the new generation joins the population; the
// population is then truncated to the fittest 3n to bound selection cost.
func (g *GA) Tell(genes [][]float64, fitness []float64) error {
	if len(genes) != len(fitness) {
		return fmt.Errorf("ga: %d genes vs %d fitnesses", len(genes), len(fitness))
	}
	// One flat block backs every retained clone. Carving and validation
	// stay inside the loop so an invalid individual still leaves the
	// previously appended ones in the population, exactly as before.
	block := make([]float64, len(genes)*g.cfg.Dim)
	for i := range genes {
		if len(genes[i]) != g.cfg.Dim {
			return fmt.Errorf("ga: individual %d has %d genes, want %d", i, len(genes[i]), g.cfg.Dim)
		}
		clone := block[:g.cfg.Dim:g.cfg.Dim]
		block = block[g.cfg.Dim:]
		copy(clone, genes[i])
		g.pop = append(g.pop, Individual{Genes: clone, Fitness: fitness[i]})
		g.evals++
	}
	// Truncate to the fittest individuals, always keeping K_BEST first.
	limit := 3 * g.cfg.PopSize
	if len(g.pop) > limit {
		g.sortByFitness()
		g.pop = g.pop[:limit]
	}
	return nil
}

func (g *GA) sortByFitness() {
	// Insertion sort: populations are small and mostly ordered.
	for i := 1; i < len(g.pop); i++ {
		for j := i; j > 0 && g.pop[j].Fitness > g.pop[j-1].Fitness; j-- {
			g.pop[j], g.pop[j-1] = g.pop[j-1], g.pop[j]
		}
	}
}

// Best returns the fittest individual seen so far.
func (g *GA) Best() (Individual, bool) {
	if len(g.pop) == 0 {
		return Individual{}, false
	}
	best := 0
	for i := range g.pop {
		if g.pop[i].Fitness > g.pop[best].Fitness {
			best = i
		}
	}
	ind := g.pop[best]
	return Individual{Genes: append([]float64(nil), ind.Genes...), Fitness: ind.Fitness}, true
}

// Evaluations returns the number of individuals told so far.
func (g *GA) Evaluations() int { return g.evals }

// fillRandom initializes x with uniform genes.
func (g *GA) fillRandom(x []float64) {
	for i := range x {
		x[i] = g.rng.Float64()
	}
}

// FailureFitness is the fitness floor assigned to configurations that
// could not boot; such individuals never breed while any viable individual
// exists (survival of the fittest, literally).
const FailureFitness = -10

// selectOne draws an index with probability proportional to fitness
// (Eq. 2), shifted so that negative fitnesses still select. Failed
// individuals are excluded unless the whole population failed.
func (g *GA) selectOne() int {
	min := math.Inf(1)
	viable := 0
	for _, ind := range g.pop {
		if ind.Fitness > FailureFitness {
			viable++
			if ind.Fitness < min {
				min = ind.Fitness
			}
		}
	}
	if viable == 0 {
		return g.rng.Intn(len(g.pop))
	}
	var total float64
	for _, ind := range g.pop {
		if ind.Fitness > FailureFitness {
			total += ind.Fitness - min + 1e-6
		}
	}
	target := g.rng.Float64() * total
	var acc float64
	for i, ind := range g.pop {
		if ind.Fitness <= FailureFitness {
			continue
		}
		acc += ind.Fitness - min + 1e-6
		if target < acc {
			return i
		}
	}
	return len(g.pop) - 1
}

// crossoverInto implements the paper's prefix hybridization: the child
// takes the first a genes from K_i and the remaining m−a from K_j,
// a ∈ (0, m), written into the caller-provided slice.
func (g *GA) crossoverInto(child, a, b []float64) {
	cut := 1 + g.rng.Intn(g.cfg.Dim-1) // a ∈ [1, m-1]
	copy(child[:cut], a[:cut])
	copy(child[cut:], b[cut:])
}

// mutate perturbs each gene with probability β.
func (g *GA) mutate(x []float64) {
	for i := range x {
		if g.rng.Float64() >= g.cfg.MutationProb {
			continue
		}
		if g.rng.Float64() < 0.5 {
			x[i] = g.rng.Float64()
		} else {
			x[i] = sim.Clamp(x[i]+g.rng.Gaussian(0, mutationScale), 0, 1)
		}
	}
}
