package parallel

import (
	"sync/atomic"
	"testing"
)

func TestForCoversEveryIndexOnce(t *testing.T) {
	defer SetWorkers(SetWorkers(8))
	for _, tc := range []struct{ n, grain int }{
		{0, 1}, {1, 1}, {7, 3}, {100, 1}, {100, 7}, {100, 100}, {100, 1000}, {1024, 64},
	} {
		hits := make([]int32, tc.n)
		For(tc.n, tc.grain, func(lo, hi int) {
			if lo < 0 || hi > tc.n || lo >= hi {
				t.Errorf("n=%d grain=%d: bad chunk [%d,%d)", tc.n, tc.grain, lo, hi)
			}
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("n=%d grain=%d: index %d visited %d times", tc.n, tc.grain, i, h)
			}
		}
	}
}

// TestChunkBoundariesIndependentOfWorkers records the chunk ranges fn saw
// and asserts they are the same set for 1 worker and 8 workers.
func TestChunkBoundariesIndependentOfWorkers(t *testing.T) {
	collect := func(workers int) map[[2]int]bool {
		defer SetWorkers(SetWorkers(workers))
		got := make(chan [2]int, 64)
		For(100, 9, func(lo, hi int) { got <- [2]int{lo, hi} })
		close(got)
		set := make(map[[2]int]bool)
		for r := range got {
			set[r] = true
		}
		return set
	}
	serial, par := collect(1), collect(8)
	if len(serial) != len(par) {
		t.Fatalf("chunk counts differ: %d vs %d", len(serial), len(par))
	}
	for r := range serial {
		if !par[r] {
			t.Fatalf("chunk %v missing under 8 workers", r)
		}
	}
}

func TestSerialPathNeverSpawns(t *testing.T) {
	var spawns atomic.Int32
	SetSpawnObserver(func(int) { spawns.Add(1) })
	defer SetSpawnObserver(nil)

	// One worker: always inline.
	prev := SetWorkers(1)
	For(1000, 1, func(lo, hi int) {})
	SetWorkers(prev)

	// Many workers but a single chunk: still inline.
	prev = SetWorkers(8)
	For(10, 100, func(lo, hi int) {})
	SetWorkers(prev)

	if n := spawns.Load(); n != 0 {
		t.Fatalf("serial paths spawned workers %d times", n)
	}
}

func TestFanOutReportsWorkerCount(t *testing.T) {
	defer SetWorkers(SetWorkers(4))
	var reported atomic.Int32
	SetSpawnObserver(func(w int) { reported.Store(int32(w)) })
	defer SetSpawnObserver(nil)
	For(100, 1, func(lo, hi int) {})
	if reported.Load() != 4 {
		t.Fatalf("observer saw %d workers, want 4", reported.Load())
	}
	// More workers than chunks: capped at the chunk count.
	reported.Store(0)
	SetWorkers(16)
	For(6, 3, func(lo, hi int) {})
	if reported.Load() != 2 {
		t.Fatalf("observer saw %d workers, want 2 (chunk-capped)", reported.Load())
	}
}

func TestSetWorkersRestore(t *testing.T) {
	if prev := SetWorkers(3); prev != 0 {
		t.Fatalf("unexpected initial override %d", prev)
	}
	if Workers() != 3 {
		t.Fatalf("Workers() = %d, want 3", Workers())
	}
	if prev := SetWorkers(0); prev != 3 {
		t.Fatalf("restore returned %d, want 3", prev)
	}
}
