// Package rf implements a random forest of CART regression trees for knob
// sifting (§3.2.2): 200 trees are trained on (configuration, performance)
// samples, each on a random feature subset, and the average impurity
// reduction per knob yields an importance ranking from which the top-k
// knobs are kept for tuning. For continuous performance labels the CART
// impurity is variance (the regression counterpart of the paper's Gini
// criterion).
package rf

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"github.com/hunter-cdb/hunter/internal/parallel"
	"github.com/hunter-cdb/hunter/internal/sim"
)

// Options configure forest training.
type Options struct {
	// Trees is the number of CARTs (paper: 200); 0 selects 200.
	Trees int
}

func (o Options) withDefaults() Options {
	if o.Trees <= 0 {
		o.Trees = 200
	}
	return o
}

// The tree shape: depth is bounded by maxDepth, and every leaf holds at
// least minLeaf samples.
const (
	maxDepth = 8
	minLeaf  = 3
)

// featuresPerTree is g = ⌈m/3⌉, the size of each tree's random feature
// subset over m features.
func featuresPerTree(m int) int { return (m + 2) / 3 }

// Forest is a trained random forest.
type Forest struct {
	trees      []*tree
	importance []float64 // normalized, sums to 1 (or all zero)
	dim        int
}

type tree struct {
	nodes []node
}

type node struct {
	feature     int // -1 for leaf
	threshold   float64
	left, right int
	value       float64 // leaf prediction
}

// treeTask is the pre-drawn randomness one tree trains on: its bootstrap
// rows, its feature subset, and a private RNG stream. All three are drawn
// serially from the master RNG in tree order before any fan-out, so
// training is deterministic for a given seed no matter how many workers
// build the trees.
type treeTask struct {
	idx   []int
	feats []int
	rng   *sim.RNG
}

// Train fits a forest on X (rows = samples) and y. The RNG makes training
// deterministic for a given seed. Trees are built concurrently — each on
// its pre-seeded task from treeTasks, accumulating impurity gains into a
// private importance vector — and the per-tree vectors are reduced in
// tree order afterwards, so the forest is bit-identical for 1 worker and
// for GOMAXPROCS workers.
func Train(x [][]float64, y []float64, opts Options, rng *sim.RNG) (*Forest, error) {
	if len(x) == 0 || len(x) != len(y) {
		return nil, fmt.Errorf("rf: bad training set: %d samples, %d labels", len(x), len(y))
	}
	m := len(x[0])
	for i := range x {
		if len(x[i]) != m {
			return nil, fmt.Errorf("rf: ragged sample %d", i)
		}
	}
	opts = opts.withDefaults()
	f := &Forest{dim: m, importance: make([]float64, m)}

	// Draw every tree's randomness serially, consuming the master stream
	// in exactly the order the serial loop used to. Bootstrap rows live in
	// one flat block instead of a slice per tree.
	n := len(x)
	tasks := make([]treeTask, opts.Trees)
	idxBlock := make([]int, opts.Trees*n)
	for t := range tasks {
		// Bootstrap rows.
		idx := idxBlock[t*n : (t+1)*n]
		for i := range idx {
			idx[i] = rng.Intn(n)
		}
		// Random feature subset (the individual C of each CART).
		tasks[t].idx = idx
		tasks[t].feats = rng.Perm(m)[:featuresPerTree(m)]
	}
	for t := range tasks {
		tasks[t].rng = rng.Fork()
	}

	// Every split node feeds ≥ minLeaf samples to each child, so a tree
	// over n bootstrap rows has at most n/minLeaf leaves (and the depth
	// cap bounds it too); pre-sizing the node arena to the tighter bound
	// makes tree growth allocation-free.
	nodeCap := 2*(n/minLeaf) + 3
	if depthCap := 1<<(maxDepth+1) - 1; nodeCap > depthCap {
		nodeCap = depthCap
	}

	// Grow the trees concurrently; trees share no state. Each tree's
	// importance vector is a row of one flat block, and the per-tree
	// training scratch (index arenas, pre-sorted feature columns, split
	// buffers) is pooled across trees.
	f.trees = make([]*tree, opts.Trees)
	impBlock := make([]float64, opts.Trees*m)
	parallel.For(opts.Trees, 1, func(lo, hi int) {
		for t := lo; t < hi; t++ {
			tr := trainerPool.Get().(*trainer)
			tree := &tree{nodes: make([]node, 0, nodeCap)}
			tr.fit(tree, x, y, tasks[t].idx, tasks[t].feats, impBlock[t*m:(t+1)*m])
			f.trees[t] = tree
			trainerPool.Put(tr)
		}
	})

	// Reduce importance in tree order (fixed floating-point association),
	// then normalize.
	for t := 0; t < opts.Trees; t++ {
		for i, v := range impBlock[t*m : (t+1)*m] {
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
	return f, nil
}

// pair is one (feature value, label) sample in split-scan order.
type pair struct{ v, y float64 }

// trainer is the reusable per-tree training scratch. One tree's growth
// used to allocate left/right index slices at every node and a fresh
// sort buffer per split candidate (~3600 allocations per tree); the
// trainer replaces them with a flat position arena partitioned in place,
// one pooled sort buffer, and per-tree pre-sorted feature columns.
//
// Bit-identity contract with the seed algorithm: a node's rows live in
// the arena in exactly the order the seed's append-built index slices
// held them (the in-place partition is stable), so the slow split path —
// fill the pair buffer in node order, sort with the same pdqsort the
// seed's sort.Slice ran — performs the identical comparisons, swaps and
// prefix sums. The fast path skips the per-node sort by gathering the
// node's rows from the column's pre-sorted order, and is only taken when
// the column provably cannot observe the difference: every group of
// equal feature values must carry bitwise-equal labels (true for ties
// that are bootstrap duplicates of one row — the common case for
// continuous knobs), making every valid sorted order numerically
// indistinguishable. Columns with ties across distinct labels (discrete
// knobs) always take the slow path.
type trainer struct {
	feats []int
	imp   []float64
	t     *tree
	n     int

	yboot    []float64 // label per position
	colVals  []float64 // g×n: feature value per (slot, position)
	sorted   []int     // g×n: positions in ascending column order
	eligible []bool    // per slot: fast gather path provably identical
	arena    []int     // node row positions, partitioned in place
	part     []int     // right-side scratch for the stable partition
	ps       []pair    // split scan buffer
	inNode   []bool    // node membership stamp for the gather path

	colSrt idxSorter
	psSrt  pairSorter
}

var trainerPool = sync.Pool{New: func() any { return &trainer{} }}

// idxSorter sorts positions by a key column. Reused via sort.Sort (a
// pointer receiver converts to the interface without allocating).
type idxSorter struct {
	idx []int
	key []float64
}

func (s *idxSorter) Len() int           { return len(s.idx) }
func (s *idxSorter) Less(a, b int) bool { return s.key[s.idx[a]] < s.key[s.idx[b]] }
func (s *idxSorter) Swap(a, b int)      { s.idx[a], s.idx[b] = s.idx[b], s.idx[a] }

// pairSorter sorts the split buffer by value. sort.Sort runs the same
// pdqsort over the same comparisons as the seed's sort.Slice, so the
// resulting order — ties included — is identical, without the two
// allocations sort.Slice pays per call.
type pairSorter struct{ ps []pair }

func (s *pairSorter) Len() int           { return len(s.ps) }
func (s *pairSorter) Less(a, b int) bool { return s.ps[a].v < s.ps[b].v }
func (s *pairSorter) Swap(a, b int)      { s.ps[a], s.ps[b] = s.ps[b], s.ps[a] }

// reset sizes the scratch for n bootstrap rows and g candidate features.
func (tr *trainer) reset(n, g int) {
	tr.n = n
	if cap(tr.yboot) < n {
		tr.yboot = make([]float64, n)
		tr.arena = make([]int, n)
		tr.part = make([]int, n)
		tr.ps = make([]pair, n)
		tr.inNode = make([]bool, n)
	}
	tr.yboot = tr.yboot[:n]
	tr.arena = tr.arena[:n]
	tr.part = tr.part[:n]
	tr.ps = tr.ps[:n]
	tr.inNode = tr.inNode[:n]
	if cap(tr.colVals) < g*n {
		tr.colVals = make([]float64, g*n)
		tr.sorted = make([]int, g*n)
	}
	tr.colVals = tr.colVals[:g*n]
	tr.sorted = tr.sorted[:g*n]
	if cap(tr.eligible) < g {
		tr.eligible = make([]bool, g)
	}
	tr.eligible = tr.eligible[:g]
}

// fit grows one tree on the bootstrap rows idx over the feature subset
// feats, accumulating impurity gains into imp.
func (tr *trainer) fit(t *tree, x [][]float64, y []float64, idx, feats []int, imp []float64) {
	n, g := len(idx), len(feats)
	tr.reset(n, g)
	tr.feats, tr.imp, tr.t = feats, imp, t
	// Position k of the arena is bootstrap draw k — the exact order the
	// seed's root index slice held the rows.
	for k, row := range idx {
		tr.yboot[k] = y[row]
		tr.arena[k] = k
		tr.inNode[k] = false
	}
	// Materialize each candidate feature as a flat column over bootstrap
	// positions and sort it once per tree; splits gather from this order
	// when the column is eligible instead of re-sorting per node.
	for c, f := range feats {
		col := tr.colVals[c*n : (c+1)*n]
		for k, row := range idx {
			col[k] = x[row][f]
		}
		srt := tr.sorted[c*n : (c+1)*n]
		for k := range srt {
			srt[k] = k
		}
		tr.colSrt.idx, tr.colSrt.key = srt, col
		sort.Sort(&tr.colSrt)
		tr.eligible[c] = eligibleColumn(col, tr.yboot, srt)
	}
	tr.build(0, n, 0)
}

// eligibleColumn reports whether the pre-sorted gather path is provably
// bit-identical to the seed's per-node sort for this column: the column
// carries no NaN (NaN makes comparison sorts order-unstable) and every
// run of equal values holds bitwise-equal labels, so any valid sorted
// order of any subset yields the exact same (value, label) sequence.
// Bootstrap ties — the same row drawn twice — always qualify; discrete
// knob columns with ties across distinct labels do not, and fall back to
// the per-node sort.
func eligibleColumn(col, yboot []float64, srt []int) bool {
	for _, v := range col {
		if math.IsNaN(v) {
			return false
		}
	}
	for k := 1; k < len(srt); k++ {
		a, b := srt[k-1], srt[k]
		if col[a] == col[b] && math.Float64bits(yboot[a]) != math.Float64bits(yboot[b]) {
			return false
		}
	}
	return true
}

// build grows a subtree over the arena range [lo, hi) and returns its
// node index.
func (tr *trainer) build(lo, hi, depth int) int {
	t := tr.t
	idx := tr.arena[lo:hi]
	mu, va := meanVarPos(tr.yboot, idx)
	if depth >= maxDepth || len(idx) < 2*minLeaf || va < 1e-12 {
		t.nodes = append(t.nodes, node{feature: -1, value: mu})
		return len(t.nodes) - 1
	}
	for _, p := range idx {
		tr.inNode[p] = true
	}
	bestC, bestThr, bestGain := -1, 0.0, 0.0
	for c := range tr.feats {
		thr, gain := tr.bestSplit(lo, hi, c)
		if gain > bestGain {
			bestC, bestThr, bestGain = c, thr, gain
		}
	}
	for _, p := range idx {
		tr.inNode[p] = false
	}
	if bestC < 0 {
		t.nodes = append(t.nodes, node{feature: -1, value: mu})
		return len(t.nodes) - 1
	}
	tr.imp[tr.feats[bestC]] += bestGain * float64(len(idx))
	// Stable in-place partition: left rows compact forward (each write
	// lands at or behind the read cursor), right rows stage in the
	// scratch and follow — both sides keep their relative order, exactly
	// like the seed's two append loops.
	col := tr.colVals[bestC*tr.n : (bestC+1)*tr.n]
	nl, nr := 0, 0
	for _, p := range idx {
		if col[p] <= bestThr {
			idx[nl] = p
			nl++
		} else {
			tr.part[nr] = p
			nr++
		}
	}
	copy(idx[nl:], tr.part[:nr])
	self := len(t.nodes)
	t.nodes = append(t.nodes, node{feature: tr.feats[bestC], threshold: bestThr})
	l := tr.build(lo, lo+nl, depth+1)
	r := tr.build(lo+nl, hi, depth+1)
	t.nodes[self].left, t.nodes[self].right = l, r
	return self
}

// bestSplit finds the threshold on feature slot c maximizing variance
// reduction over the arena range [lo, hi).
func (tr *trainer) bestSplit(lo, hi, c int) (thr, gain float64) {
	idx := tr.arena[lo:hi]
	ps := tr.ps[:len(idx)]
	col := tr.colVals[c*tr.n : (c+1)*tr.n]
	if tr.eligible[c] {
		// Fast path: gather the node's rows in the column's pre-sorted
		// order — no per-node sort. Provably bit-identical (see the
		// trainer doc comment).
		srt := tr.sorted[c*tr.n : (c+1)*tr.n]
		m := 0
		for _, p := range srt {
			if tr.inNode[p] {
				ps[m] = pair{col[p], tr.yboot[p]}
				m++
			}
		}
	} else {
		// Slow path: identical to the seed — fill in node order, run the
		// same pdqsort (via a pooled sorter instead of sort.Slice).
		for j, p := range idx {
			ps[j] = pair{col[p], tr.yboot[p]}
		}
		tr.psSrt.ps = ps
		sort.Sort(&tr.psSrt)
	}
	return scanSplit(ps, minLeaf)
}

// scanSplit runs the seed's prefix-sum scan over value-sorted pairs.
func scanSplit(ps []pair, minLeaf int) (thr, gain float64) {
	n := len(ps)
	// Prefix sums for O(n) scan.
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
	return thr, best / float64(n) // per-sample gain
}

// meanVarPos is the seed's meanVar over arena positions.
func meanVarPos(yboot []float64, idx []int) (mu, va float64) {
	if len(idx) == 0 {
		return 0, 0
	}
	for _, p := range idx {
		mu += yboot[p]
	}
	mu /= float64(len(idx))
	for _, p := range idx {
		d := yboot[p] - mu
		va += d * d
	}
	va /= float64(len(idx))
	return
}

// Predict averages the trees' predictions for x, reducing in tree order.
// A single traversal is a few hundred nanoseconds, so a prediction never
// fans out.
func (f *Forest) Predict(x []float64) float64 {
	if len(f.trees) == 0 {
		return 0
	}
	var s float64
	for _, t := range f.trees {
		s += t.predict(x)
	}
	return s / float64(len(f.trees))
}

func (t *tree) predict(x []float64) float64 {
	i := 0
	for {
		n := &t.nodes[i]
		if n.feature < 0 {
			return n.value
		}
		if x[n.feature] <= n.threshold {
			i = n.left
		} else {
			i = n.right
		}
	}
}

// Importance returns the normalized per-feature importance scores.
func (f *Forest) Importance() []float64 {
	out := make([]float64, len(f.importance))
	copy(out, f.importance)
	return out
}

// Ranking returns feature indices in descending importance order.
func (f *Forest) Ranking() []int {
	idx := make([]int, f.dim)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return f.importance[idx[a]] > f.importance[idx[b]] })
	return idx
}

// TopK returns the indices of the k most important features.
func (f *Forest) TopK(k int) []int {
	r := f.Ranking()
	if k > len(r) {
		k = len(r)
	}
	return r[:k]
}
