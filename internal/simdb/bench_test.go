package simdb

import (
	"slices"
	"testing"

	"github.com/hunter-cdb/hunter/internal/knob"
	"github.com/hunter-cdb/hunter/internal/sim"
	"github.com/hunter-cdb/hunter/internal/workload"
)

// BenchmarkBufferPoolAccess measures raw LRU throughput (the inner loop of
// every stress test).
func BenchmarkBufferPoolAccess(b *testing.B) {
	pool := newBufferPool(4096, 37, true)
	z := sim.NewZipf(sim.NewRNG(1), 1.2, 65536)
	keys := make([]uint32, 8192)
	for i := range keys {
		keys[i] = uint32(z.Next())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pool.Access(keys[i%len(keys)], i%4 == 0, false)
	}
}

// BenchmarkBufferPoolMidpointVsPlain is the design-choice ablation from
// DESIGN.md: midpoint insertion vs a plain LRU under a scan-polluted
// stream. It reports the hit ratio each policy achieves as a metric.
func BenchmarkBufferPoolMidpointVsPlain(b *testing.B) {
	run := func(b *testing.B, oldPct float64, promote2nd bool) {
		var hit float64
		for i := 0; i < b.N; i++ {
			pool := newBufferPool(1024, oldPct, promote2nd)
			z := sim.NewZipf(sim.NewRNG(int64(i)), 1.3, 16384)
			for j := 0; j < 30000; j++ {
				if j%10 == 9 { // periodic short scans pollute the pool
					start := uint32(j * 37 % 16384)
					for k := uint32(0); k < 16; k++ {
						pool.Access(start+k, false, true)
					}
				} else {
					pool.Access(uint32(z.Next()), false, false)
				}
			}
			hit += pool.HitRatio()
		}
		b.ReportMetric(hit/float64(b.N), "hit-ratio")
	}
	b.Run("midpoint", func(b *testing.B) { run(b, 37, true) })
	b.Run("plain-lru", func(b *testing.B) { run(b, 95, false) })
}

// tpccLockBatch draws a lock batch shaped like the engine's on TPC-C: 32
// transactions, new_order (23 writes, one on the 550-row warehouse and
// district set) or payment (4 writes, two of them hot) by the mix's
// weights, cold writes from its Zipf row space.
func tpccLockBatch(rng *sim.RNG) [][]uint64 {
	p := workload.TPCC()
	rows := sim.NewZipf(rng, p.Skew, uint64(p.Rows))
	ws := make([][]uint64, 32)
	for t := range ws {
		writes, hot := 23, 1
		if rng.Intn(88) >= 45 {
			writes, hot = 4, 2
		}
		ws[t] = engineWriteSet(rng, &rows, writes, hot, p.HotSetSize)
	}
	return ws
}

// sysbenchLockBatch draws a lock batch shaped like the engine's on
// sysbench-rw: 256 transactions of 4 writes over its Zipf row space.
func sysbenchLockBatch(rng *sim.RNG) [][]uint64 {
	p := workload.SysbenchRW()
	rows := sim.NewZipf(rng, p.Skew, uint64(p.Rows))
	ws := make([][]uint64, 256)
	for t := range ws {
		ws[t] = engineWriteSet(rng, &rows, 4, 0, 0)
	}
	return ws
}

// engineWriteSet builds one write set as Engine.measurePool does.
func engineWriteSet(rng *sim.RNG, rows *sim.Zipf, writes, hot int, hotSet int64) []uint64 {
	var ws []uint64
	for i := 0; i < hot; i++ {
		ws = append(ws, uint64(rng.Int63n(hotSet)))
	}
	for i := hot; i < writes; i++ {
		ws = append(ws, rows.Next()+1<<32)
	}
	if rng.Float64() < 0.92 || len(ws) > 8 {
		slices.Sort(ws)
	}
	return ws
}

// BenchmarkLockSim measures the batch lock simulation alone, one batch per
// op, over 16 engine-shaped batches per workload built once from seed 1.
func BenchmarkLockSim(b *testing.B) {
	for _, shape := range []struct {
		name  string
		batch func(*sim.RNG) [][]uint64
	}{
		{"tpcc", tpccLockBatch},
		{"sysbench-rw", sysbenchLockBatch},
	} {
		b.Run(shape.name, func(b *testing.B) {
			rng := sim.NewRNG(1)
			batches := make([][][]uint64, 16)
			for i := range batches {
				batches[i] = shape.batch(rng)
			}
			var s lockSim
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.run(batches[i%len(batches)])
			}
		})
	}
}

// BenchmarkEngineRun measures one full stress test (the unit of every
// tuning step) per workload.
func BenchmarkEngineRun(b *testing.B) {
	for _, wl := range []struct {
		name string
		p    *workload.Profile
	}{
		{"tpcc", workload.TPCC()},
		{"sysbench-rw", workload.SysbenchRW()},
		{"production", workload.Production()},
	} {
		b.Run(wl.name, func(b *testing.B) {
			e, err := NewEngine(MySQL, referenceMySQL(), 1)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := e.Run(wl.p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngineConfigure measures deployment cost including boot
// validation and pool rebuild.
func BenchmarkEngineConfigure(b *testing.B) {
	e, err := NewEngine(MySQL, referenceMySQL(), 2)
	if err != nil {
		b.Fatal(err)
	}
	cfgs := make([]knob.Config, 8)
	for i := range cfgs {
		c := knob.MySQL().Defaults()
		c["innodb_buffer_pool_size"] = float64(int64(1+i) << 30)
		cfgs[i] = c
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Configure(cfgs[i%len(cfgs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineRunProductionCompression is the per-step cost collapse:
// one stress test of the full 222-table production trace profile vs the
// compressed kernel (clustered mix + fractional measurement effort).
func BenchmarkEngineRunProductionCompression(b *testing.B) {
	full := workload.Production()
	kernel := workload.CompressProduction().Profile
	for _, wl := range []struct {
		name string
		p    *workload.Profile
	}{
		{"full", full},
		{"kernel", kernel},
	} {
		b.Run(wl.name, func(b *testing.B) {
			e, err := NewEngine(MySQL, referenceMySQL(), 1)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := e.Run(wl.p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngineWarmDelta measures the Configure+Run cycle when
// consecutive configurations move only the buffer-pool shape: rebuild
// discards and re-warms the pool every time, delta resizes it in place.
func BenchmarkEngineWarmDelta(b *testing.B) {
	p := workload.TPCC()
	cfgs := make([]knob.Config, 4)
	for i := range cfgs {
		c := knob.MySQL().Defaults()
		c["innodb_buffer_pool_size"] = float64(int64(4+4*i) << 30)
		cfgs[i] = c
	}
	for _, mode := range []struct {
		name string
		on   bool
	}{
		{"rebuild", false},
		{"delta", true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			e, err := NewEngine(MySQL, referenceMySQL(), 1)
			if err != nil {
				b.Fatal(err)
			}
			e.SetWarmDeltas(mode.on)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := e.Configure(cfgs[i%len(cfgs)]); err != nil {
					b.Fatal(err)
				}
				if _, _, err := e.Run(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
