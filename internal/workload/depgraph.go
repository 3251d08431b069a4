package workload

// The transaction dependency graph of §2.1 (Figure 3). Replaying a
// captured trace strictly in arrival order is reliable but serial; instead
// HUNTER builds a DAG whose edges are the conflicts between transactions
// (a later transaction that reads or writes a key written by an earlier
// one must wait for it) and replays any transaction whose parents have all
// committed, recovering the trace's inherent concurrency.

// DepGraph is the conflict DAG over a trace. Nodes are transaction indices
// in arrival order; every edge points from an earlier transaction to a
// later dependent one, so the graph is acyclic by construction.
type DepGraph struct {
	n        int
	children [][]int
	parents  []int // in-degree
	levels   []int // longest-path depth of each node
}

// BuildDepGraph constructs the dependency graph of a trace in O(total
// operations) using last-writer / readers-since-write tracking per key:
//
//   - a read of key k depends on the latest write of k;
//   - a write of key k depends on the latest write of k and on every read
//     of k since that write (write-read, read-write and write-write
//     conflicts, as in the paper's example).
func BuildDepGraph(t *Trace) *DepGraph {
	n := len(t.Txns)
	g := &DepGraph{n: n, children: make([][]int, n), parents: make([]int, n), levels: make([]int, n)}
	lastWriter := make(map[uint64]int)
	readersSince := make(map[uint64][]int)
	addEdge := func(from, to int, seen map[int]bool) {
		if from == to || seen[from] {
			return
		}
		seen[from] = true
		g.children[from] = append(g.children[from], to)
		g.parents[to]++
	}
	for i, tx := range t.Txns {
		seen := make(map[int]bool)
		for _, k := range tx.ReadSet {
			if w, ok := lastWriter[k]; ok {
				addEdge(w, i, seen)
			}
		}
		for _, k := range tx.WriteSet {
			if w, ok := lastWriter[k]; ok {
				addEdge(w, i, seen)
			}
			for _, r := range readersSince[k] {
				addEdge(r, i, seen)
			}
		}
		// Update key bookkeeping after edges so self-conflicts within a
		// transaction do not create self-edges.
		for _, k := range tx.WriteSet {
			lastWriter[k] = i
			readersSince[k] = readersSince[k][:0]
		}
		for _, k := range tx.ReadSet {
			readersSince[k] = append(readersSince[k], i)
		}
		// Longest-path level: one more than the deepest parent.
		level := 0
		for p := range seen {
			if g.levels[p]+1 > level {
				level = g.levels[p] + 1
			}
		}
		g.levels[i] = level
	}
	return g
}

// Len returns the number of transactions in the graph.
func (g *DepGraph) Len() int { return g.n }

// Children returns the dependents of transaction i.
func (g *DepGraph) Children(i int) []int { return g.children[i] }

// Depth returns the longest dependency chain length (number of levels).
func (g *DepGraph) Depth() int {
	max := 0
	for _, l := range g.levels {
		if l+1 > max {
			max = l + 1
		}
	}
	return max
}

// Level returns the longest-path level of transaction i (roots are 0).
func (g *DepGraph) Level(i int) int { return g.levels[i] }

// AverageWidth returns the mean number of transactions per level — the
// concurrency a level-synchronous replay can sustain, which the engine
// uses as the trace's effective thread count.
func (g *DepGraph) AverageWidth() int {
	d := g.Depth()
	if d == 0 {
		return 1
	}
	w := g.n / d
	if w < 1 {
		w = 1
	}
	return w
}

// ReplayOrder returns a schedule of transaction batches: batch b contains
// every transaction whose parents are all in earlier batches, so all
// transactions within a batch may execute concurrently. The concatenation
// of batches is a topological order of the DAG.
func (g *DepGraph) ReplayOrder() [][]int {
	byLevel := make([][]int, g.Depth())
	for i := 0; i < g.n; i++ {
		byLevel[g.levels[i]] = append(byLevel[g.levels[i]], i)
	}
	return byLevel
}

// ArrivalOrderConcurrency reports the concurrency of the naive
// arrival-order replay the paper contrasts against: transactions replay
// strictly serially (concurrency 1) to preserve the original order.
func ArrivalOrderConcurrency() int { return 1 }
