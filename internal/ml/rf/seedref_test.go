package rf

import (
	"bytes"
	"reflect"
	"sort"
	"testing"

	"github.com/hunter-cdb/hunter/internal/parallel"
	"github.com/hunter-cdb/hunter/internal/sim"
)

// This file pins the arena-based trainer to the pre-arena implementation:
// seedTrain below is a line-for-line port of the original Train — per-node
// append-built index slices, a fresh sort buffer per split candidate,
// sort.Slice ordering — and the tests require the optimized trainer to
// reproduce its forests bit for bit, for any worker count. The data mixes
// continuous columns (which take the pre-sorted gather fast path) with
// discrete tied columns carrying distinct labels (which must fall back to
// the per-node sort), so both split paths are exercised.

func seedTrain(x [][]float64, y []float64, opts Options, rng *sim.RNG) *Forest {
	m := len(x[0])
	opts = opts.withDefaults()
	f := &Forest{dim: m, importance: make([]float64, m)}
	tasks := make([]treeTask, opts.Trees)
	for t := range tasks {
		idx := make([]int, len(x))
		for i := range idx {
			idx[i] = rng.Intn(len(x))
		}
		tasks[t].idx = idx
		tasks[t].feats = rng.Perm(m)[:featuresPerTree(m)]
	}
	for t := range tasks {
		tasks[t].rng = rng.Fork()
	}
	f.trees = make([]*tree, opts.Trees)
	perTree := make([][]float64, opts.Trees)
	for t := range tasks {
		imp := make([]float64, m)
		tr := &tree{}
		seedBuild(tr, x, y, tasks[t].idx, tasks[t].feats, 0, imp)
		f.trees[t] = tr
		perTree[t] = imp
	}
	for _, imp := range perTree {
		for i, v := range imp {
			f.importance[i] += v
		}
	}
	var total float64
	for _, v := range f.importance {
		total += v
	}
	if total > 0 {
		for i := range f.importance {
			f.importance[i] /= total
		}
	}
	return f
}

func seedBuild(t *tree, x [][]float64, y []float64, idx, feats []int, depth int, importance []float64) int {
	mu, va := seedMeanVar(y, idx)
	if depth >= maxDepth || len(idx) < 2*minLeaf || va < 1e-12 {
		t.nodes = append(t.nodes, node{feature: -1, value: mu})
		return len(t.nodes) - 1
	}
	bestFeat, bestThr, bestGain := -1, 0.0, 0.0
	for _, f := range feats {
		thr, gain := seedBestSplit(x, y, idx, f, minLeaf)
		if gain > bestGain {
			bestFeat, bestThr, bestGain = f, thr, gain
		}
	}
	if bestFeat < 0 {
		t.nodes = append(t.nodes, node{feature: -1, value: mu})
		return len(t.nodes) - 1
	}
	importance[bestFeat] += bestGain * float64(len(idx))
	var left, right []int
	for _, i := range idx {
		if x[i][bestFeat] <= bestThr {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	self := len(t.nodes)
	t.nodes = append(t.nodes, node{feature: bestFeat, threshold: bestThr})
	l := seedBuild(t, x, y, left, feats, depth+1, importance)
	r := seedBuild(t, x, y, right, feats, depth+1, importance)
	t.nodes[self].left, t.nodes[self].right = l, r
	return self
}

func seedBestSplit(x [][]float64, y []float64, idx []int, f, minLeaf int) (thr, gain float64) {
	type pair struct{ v, y float64 }
	ps := make([]pair, len(idx))
	for k, i := range idx {
		ps[k] = pair{x[i][f], y[i]}
	}
	sort.Slice(ps, func(a, b int) bool { return ps[a].v < ps[b].v })
	n := len(ps)
	var sum, sumSq float64
	for _, p := range ps {
		sum += p.y
		sumSq += p.y * p.y
	}
	totalVar := sumSq - sum*sum/float64(n)
	var ls, lss float64
	best := -1.0
	for k := 0; k < n-1; k++ {
		ls += ps[k].y
		lss += ps[k].y * ps[k].y
		if k+1 < minLeaf || n-k-1 < minLeaf || ps[k].v == ps[k+1].v {
			continue
		}
		nl, nr := float64(k+1), float64(n-k-1)
		lVar := lss - ls*ls/nl
		rs, rss := sum-ls, sumSq-lss
		rVar := rss - rs*rs/nr
		g := totalVar - lVar - rVar
		if g > best {
			best = g
			thr = (ps[k].v + ps[k+1].v) / 2
		}
	}
	if best <= 0 {
		return 0, 0
	}
	return thr, best / float64(n)
}

func seedMeanVar(y []float64, idx []int) (mu, va float64) {
	if len(idx) == 0 {
		return 0, 0
	}
	for _, i := range idx {
		mu += y[i]
	}
	mu /= float64(len(idx))
	for _, i := range idx {
		d := y[i] - mu
		va += d * d
	}
	va /= float64(len(idx))
	return
}

// mixedData generates training data with both continuous features and
// discrete ones (few distinct values, so ties across distinct labels are
// guaranteed — the case that forces the per-node sort path).
func mixedData(rng *sim.RNG, n, dim int) ([][]float64, []float64) {
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = make([]float64, dim)
		for d := range x[i] {
			if d%3 == 1 {
				x[i][d] = float64(rng.Intn(4)) // discrete knob: heavy ties
			} else {
				x[i][d] = rng.Float64()
			}
		}
		y[i] = 3*x[i][0] + x[i][1] + x[i][3]*x[i][3] - 2*x[i][7] + rng.Gaussian(0, 0.05)
	}
	return x, y
}

// TestTrainMatchesSeedImplementation requires the arena trainer to emit
// exactly the forest the pre-arena implementation emitted — node arrays,
// importance vector, and serialized snapshot — at 1 worker and at 8.
func TestTrainMatchesSeedImplementation(t *testing.T) {
	for _, seed := range []int64{3, 29, 404} {
		gen := sim.NewRNG(seed)
		x, y := mixedData(gen, 150, 18)
		want := seedTrain(x, y, Options{Trees: 50}, sim.NewRNG(seed+7))
		for _, w := range []int{1, 8} {
			prev := parallel.SetWorkers(w)
			got, err := Train(x, y, Options{Trees: 50}, sim.NewRNG(seed+7))
			parallel.SetWorkers(prev)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want.trees, got.trees) {
				t.Fatalf("seed %d workers %d: trees differ from seed implementation", seed, w)
			}
			if !reflect.DeepEqual(want.importance, got.importance) {
				t.Fatalf("seed %d workers %d: importance differs from seed implementation:\n%v\n%v",
					seed, w, want.importance, got.importance)
			}
			var wantBuf, gotBuf bytes.Buffer
			if err := want.SnapshotTo(&wantBuf); err != nil {
				t.Fatal(err)
			}
			if err := got.SnapshotTo(&gotBuf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(wantBuf.Bytes(), gotBuf.Bytes()) {
				t.Fatalf("seed %d workers %d: snapshot bytes differ", seed, w)
			}
		}
	}
}

// TestTrainAllocs guards the arena rewrite's headline: growing a forest
// costs a handful of allocations per tree (task bookkeeping, the node
// arena) instead of the thousands the append/sort.Slice version paid.
func TestTrainAllocs(t *testing.T) {
	rng := sim.NewRNG(11)
	x, y := mixedData(rng, 150, 18)
	// Warm the trainer pool.
	if _, err := Train(x, y, Options{Trees: 50}, sim.NewRNG(1)); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Train(x, y, Options{Trees: 50}, sim.NewRNG(1)); err != nil {
			t.Fatal(err)
		}
	})
	// ~6 per tree (task idx/feats/fork, tree struct, node arena) plus
	// fixed overhead; the seed implementation paid ~3600 per tree.
	if limit := 8*50 + 60; allocs > float64(limit) {
		t.Errorf("Train(50 trees) = %v allocs, want <= %d", allocs, limit)
	}
}
