package sim

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// zipfStreamsMatch draws count keys from Zipf and from math/rand's Zipf over
// two RNGs with the same seed, and reports the first divergence in the keys
// or in the generator state left behind.
func zipfStreamsMatch(seed int64, s float64, n uint64, count int) error {
	oracleRNG, rng := NewRNG(seed), NewRNG(seed)
	oracle := rand.NewZipf(oracleRNG.Rand, s, 1, n-1)
	z := NewZipf(rng, s, n)
	for i := 0; i < count; i++ {
		if want, got := oracle.Uint64(), z.Next(); want != got {
			return fmt.Errorf("seed %d s %v n %d: draw %d: stdlib %d, Zipf %d", seed, s, n, i, want, got)
		}
	}
	if !reflect.DeepEqual(oracleRNG.State(), rng.State()) {
		return fmt.Errorf("seed %d s %v n %d: RNG state diverges after %d draws", seed, s, n, count)
	}
	return nil
}

// TestZipfMatchesStdlib pins Zipf to math/rand's sampler across the
// exponents the engine sees (1.0001 is NewZipf's clamp, 2.5 the drift
// streams' ceiling) and key counts from degenerate to the production row
// space, over several seeds and 1M draws per (s, n).
func TestZipfMatchesStdlib(t *testing.T) {
	seeds := []int64{1, 42, -7, 1 << 40}
	const perSeed = 1 << 18
	for _, s := range []float64{1.0001, 1.08, 1.15, 1.3, 2.5} {
		for _, n := range []uint64{1, 2, 100, 8000, 65536, 64e6, 1.6e9} {
			for _, seed := range seeds {
				if err := zipfStreamsMatch(seed, s, n, perSeed); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// FuzzZipfMatchesStdlib compares 10k draws for arbitrary seeds, exponents
// and key counts.
func FuzzZipfMatchesStdlib(f *testing.F) {
	f.Add(int64(1), 1.15, uint64(65308))
	f.Add(int64(7), 1.08, uint64(64e6))
	f.Add(int64(3), 1.1, uint64(1.6e9))
	f.Add(int64(5), 1.0001, uint64(2))
	f.Add(int64(9), 2.5, uint64(1))
	f.Fuzz(func(t *testing.T, seed int64, s float64, n uint64) {
		if !(s > 1) || math.IsInf(s, 0) {
			t.Skip()
		}
		n = n%(1<<40) + 1
		if err := zipfStreamsMatch(seed, s, n, 10000); err != nil {
			t.Fatal(err)
		}
	})
}

// TestZipfTablesShared: samplers for the same (s, n) share one table, the
// cache stays bounded, and concurrent samplers building and sharing tables
// reproduce the sequential streams.
func TestZipfTablesShared(t *testing.T) {
	if a, b := NewZipf(NewRNG(1), 1.2, 5000), NewZipf(NewRNG(2), 1.2, 5000); a.t != b.t {
		t.Fatal("same (s, n) built two tables")
	}
	for i := 0; i < 2*zipfTableCap; i++ {
		NewZipf(NewRNG(1), 1.5+float64(i)/1000, 100)
	}
	zipfTables.Lock()
	size := len(zipfTables.m)
	zipfTables.Unlock()
	if size > zipfTableCap {
		t.Fatalf("cache holds %d tables, cap %d", size, zipfTableCap)
	}

	draw := func(seed int64, s float64, n uint64) []uint64 {
		z := NewZipf(NewRNG(seed), s, n)
		keys := make([]uint64, 20000)
		for i := range keys {
			keys[i] = z.Next()
		}
		return keys
	}
	type job struct {
		seed int64
		s    float64
		n    uint64
	}
	var jobs []job
	for i := 0; i < 16; i++ {
		jobs = append(jobs, job{int64(i), 1.05 + 0.01*float64(i%4), uint64(1000 << (i % 3))})
	}
	want := make([][]uint64, len(jobs))
	for i, j := range jobs {
		want[i] = draw(j.seed, j.s, j.n)
	}
	got := make([][]uint64, len(jobs))
	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func(i int, j job) {
			defer wg.Done()
			got[i] = draw(j.seed, j.s, j.n)
		}(i, j)
	}
	wg.Wait()
	if !reflect.DeepEqual(want, got) {
		t.Fatal("concurrent samplers diverge from sequential streams")
	}
}

var zipfSink uint64

// BenchmarkZipfNext measures one key draw on the (s, n) pairs the benchmark
// workloads draw: page keys (n ≤ 65,536) and row keys for TPC-C, sysbench
// and production. The table runs report the share of attempts the table
// leaves to the stdlib arithmetic.
func BenchmarkZipfNext(b *testing.B) {
	pairs := []struct {
		name string
		s    float64
		n    uint64
	}{
		{"tpcc-pages", 1.15, 65308},
		{"tpcc-rows", 1.15, 25050550},
		{"sysbench-pages", 1.08, 65536},
		{"sysbench-rows", 1.08, 64e6},
		{"production-pages", 1.1, 65536},
		{"production-rows", 1.1, 1.6e9},
	}
	for _, p := range pairs {
		b.Run("stdlib/"+p.name, func(b *testing.B) {
			z := rand.NewZipf(NewRNG(1).Rand, p.s, 1, p.n-1)
			b.ResetTimer()
			var sum uint64
			for i := 0; i < b.N; i++ {
				sum += z.Uint64()
			}
			zipfSink = sum
		})
		b.Run("table/"+p.name, func(b *testing.B) {
			z := NewZipf(NewRNG(1), p.s, p.n)
			b.ResetTimer()
			var sum uint64
			for i := 0; i < b.N; i++ {
				sum += z.Next()
			}
			zipfSink = sum
			b.StopTimer()
			// Classify a fixed stream of uniform draws the way Next does.
			rng := NewRNG(2)
			const probes = 1 << 16
			var fallback int
			for i := 0; i < probes; i++ {
				if _, _, ok := z.t.lookup(rng.Float64()); !ok {
					fallback++
				}
			}
			b.ReportMetric(float64(fallback)/probes, "fallback-share")
		})
	}
}
