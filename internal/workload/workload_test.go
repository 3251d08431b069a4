package workload

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"github.com/hunter-cdb/hunter/internal/sim"
)

// TestTable2Definitions pins the workload parameters to Table 2.
func TestTable2Definitions(t *testing.T) {
	for _, p := range []*Profile{SysbenchRO(), SysbenchWO(), SysbenchRW()} {
		if p.Threads != 512 {
			t.Errorf("%s threads = %d, want 512", p.Name, p.Threads)
		}
		if p.DataBytes != 8<<30 {
			t.Errorf("%s size = %d, want 8 GB", p.Name, p.DataBytes)
		}
		if p.Tables != 8 || p.Rows != 64_000_000 {
			t.Errorf("%s dataset wrong: %d tables, %d rows", p.Name, p.Tables, p.Rows)
		}
	}
	tp := TPCC()
	if tp.Threads != 32 {
		t.Errorf("tpcc clients = %d, want 32", tp.Threads)
	}
	want := int64(8_970) << 20 // Table 2: 8.97 GB
	if diff := tp.DataBytes - want; diff < -want/30 || diff > want/30 {
		t.Errorf("tpcc size = %.2f GB, want ≈8.97 GB", float64(tp.DataBytes)/(1<<30))
	}
	if tp.Rows != TPCCRows(TPCCWarehouses) {
		t.Errorf("tpcc rows %d inconsistent with schema", tp.Rows)
	}
	if len(tp.Mix) != 5 {
		t.Errorf("tpcc mix has %d classes, want 5", len(tp.Mix))
	}
	prod := Production()
	if prod.Tables != 222 || prod.DataBytes != 250<<30 {
		t.Errorf("production dataset wrong: %d tables %d bytes", prod.Tables, prod.DataBytes)
	}
}

func TestReadWriteRatios(t *testing.T) {
	if wf := SysbenchRO().WriteFraction(); wf != 0 {
		t.Errorf("RO write fraction = %v", wf)
	}
	if wf := SysbenchWO().WriteFraction(); wf != 1 {
		t.Errorf("WO write fraction = %v", wf)
	}
	rw := SysbenchRW().WriteFraction()
	if rw <= 0 || rw >= 1 {
		t.Errorf("RW write fraction = %v", rw)
	}
	// Production is write-leaning (R/W 20:29 in Table 2).
	if wf := Production().WriteFraction(); wf < 0.35 {
		t.Errorf("production write fraction = %v, should be write-leaning", wf)
	}
}

func TestValidateRejectsBadProfiles(t *testing.T) {
	bad := []*Profile{
		{},
		{Name: "x", Rows: 1, DataBytes: 1, Threads: 0, Mix: []TxnClass{{Weight: 1}}},
		{Name: "x", Rows: 1, DataBytes: 1, Threads: 1},
		{Name: "x", Rows: 1, DataBytes: 1, Threads: 1, Mix: []TxnClass{{Weight: -1}}},
		{Name: "x", Rows: 1, DataBytes: 1, Threads: 1, Mix: []TxnClass{{Weight: 0}}},
		{Name: "x", Rows: 1, DataBytes: 1, Threads: 1, Mix: []TxnClass{{Weight: math.NaN()}}},
		{Name: "x", Rows: 1, DataBytes: 1, Threads: 1, Mix: []TxnClass{{Weight: 1}, {Weight: math.Inf(1)}}},
		{Name: "x", Rows: 1, DataBytes: 1, Threads: 1, Mix: []TxnClass{{Weight: 1}}, MeasureFraction: math.NaN()},
		{Name: "x", Rows: 1, DataBytes: 1, Threads: 1, Mix: []TxnClass{{Weight: 1}}, MeasureFraction: math.Inf(1)},
		{Name: "x", Rows: 1, DataBytes: 1, Threads: 1, Mix: []TxnClass{{Weight: 1}}, Skew: math.NaN()},
		{Name: "x", Rows: 1, DataBytes: 1, Threads: 1, Mix: []TxnClass{{Weight: 1}}, Skew: math.Inf(1)},
		{Name: "x", Rows: 1, DataBytes: 1, Threads: 1, Mix: []TxnClass{{Weight: 1}}, Skew: math.Inf(-1)},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("profile %d should be invalid", i)
		}
	}
	if err := TPCC().Validate(); err != nil {
		t.Errorf("tpcc invalid: %v", err)
	}
}

func TestAveragesWeighting(t *testing.T) {
	p := &Profile{
		Name: "x", Rows: 1, DataBytes: 1, Threads: 1,
		Mix: []TxnClass{
			{Weight: 3, PointReads: 10, CPUMillis: 1},
			{Weight: 1, PointWrites: 8, CPUMillis: 5},
		},
	}
	r, w, _, cpu, _ := p.Averages()
	if r != 7.5 || w != 2 || cpu != 2 {
		t.Fatalf("averages = %v %v %v", r, w, cpu)
	}
}

func TestEffectiveThreads(t *testing.T) {
	p := &Profile{Threads: 256, ReplayConcurrency: 40}
	if p.EffectiveThreads() != 40 {
		t.Fatal("replay concurrency should cap threads")
	}
	p.ReplayConcurrency = 0
	if p.EffectiveThreads() != 256 {
		t.Fatal("no replay cap: use threads")
	}
	p.ReplayConcurrency = 1000
	if p.EffectiveThreads() != 256 {
		t.Fatal("replay wider than threads: use threads")
	}
}

func TestCaptureProductionWindows(t *testing.T) {
	am := CaptureProduction(sim.NewRNG(1), "9am", 2000)
	pm := CaptureProduction(sim.NewRNG(1), "9pm", 2000)
	ratio := func(tr *Trace) float64 {
		var r, w int
		for _, tx := range tr.Txns {
			r += len(tx.ReadSet)
			w += len(tx.WriteSet)
		}
		return float64(w) / float64(r+w)
	}
	if ratio(pm) <= ratio(am) {
		t.Fatalf("evening window should be more write-heavy: am=%.2f pm=%.2f", ratio(am), ratio(pm))
	}
	if len(am.Txns) != 2000 {
		t.Fatalf("trace length %d", len(am.Txns))
	}
	// Arrivals must be non-decreasing.
	for i := 1; i < len(am.Txns); i++ {
		if am.Txns[i].Arrival < am.Txns[i-1].Arrival {
			t.Fatal("arrivals must be monotone")
		}
	}
}

func TestProductionProfilesDiffer(t *testing.T) {
	a, b := Production(), ProductionDrifted()
	if a.Name == b.Name {
		t.Fatal("drifted profile should have a different name")
	}
	if a.WriteFraction() >= b.WriteFraction() {
		t.Fatalf("drift should increase write fraction: %v vs %v", a.WriteFraction(), b.WriteFraction())
	}
	if a.ReplayConcurrency <= 1 {
		t.Fatal("DAG replay should recover concurrency > 1")
	}
}

func TestSysbenchRWRatio(t *testing.T) {
	p41 := SysbenchRWRatio(4, 1)
	p11 := SysbenchRWRatio(1, 1)
	if p41.WriteFraction() >= p11.WriteFraction() {
		t.Fatalf("4:1 should write less than 1:1: %v vs %v", p41.WriteFraction(), p11.WriteFraction())
	}
	if p41.Name == p11.Name {
		t.Fatal("ratio must be part of the name")
	}
}

// --- Dependency graph (Figure 3) ---

func TestDepGraphPaperExample(t *testing.T) {
	// Six transactions: A1 and A2 are roots; B1, B2 depend on A1; B3
	// depends on A1 and A2 (via write-write conflicts on shared keys).
	tr := &Trace{Txns: []TracedTxn{
		{ID: 0, WriteSet: []uint64{1, 2}},                    // A1
		{ID: 1, WriteSet: []uint64{3}},                       // A2
		{ID: 2, WriteSet: []uint64{1}},                       // B1 ← A1 (key 1)
		{ID: 3, ReadSet: []uint64{2}},                        // B2 ← A1 (key 2)
		{ID: 4, WriteSet: []uint64{3}, ReadSet: []uint64{2}}, // B3 ← A1, A2
	}}
	g := BuildDepGraph(tr)
	if g.Level(0) != 0 || g.Level(1) != 0 {
		t.Fatal("A1 and A2 must be roots")
	}
	for _, b := range []int{2, 3, 4} {
		if g.Level(b) != 1 {
			t.Fatalf("B%d at level %d, want 1", b-1, g.Level(b))
		}
	}
	if g.Depth() != 2 {
		t.Fatalf("depth = %d, want 2", g.Depth())
	}
	order := g.ReplayOrder()
	if len(order[0]) != 2 || len(order[1]) != 3 {
		t.Fatalf("replay batches %v", order)
	}
}

// TestDepGraphTopologicalProperty: for random traces, every edge points
// forward in arrival order (acyclic by construction) and the replay order
// schedules every parent before its children.
func TestDepGraphTopologicalProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := sim.NewRNG(seed)
		tr := CaptureProduction(rng, "9am", 300+rng.Intn(300))
		g := BuildDepGraph(tr)
		pos := make([]int, g.Len())
		idx := 0
		for _, batch := range g.ReplayOrder() {
			for _, tx := range batch {
				pos[tx] = idx
			}
			idx++
		}
		total := 0
		for i := 0; i < g.Len(); i++ {
			for _, c := range g.Children(i) {
				if c <= i {
					return false // edge pointing backwards
				}
				if pos[c] <= pos[i] {
					return false // child scheduled with/before parent
				}
			}
			total++
		}
		// Every transaction appears exactly once in the replay order.
		seen := 0
		for _, b := range g.ReplayOrder() {
			seen += len(b)
		}
		return seen == g.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestDepGraphWidthBeatsArrivalOrder(t *testing.T) {
	tr := CaptureProduction(sim.NewRNG(3), "9am", 3000)
	g := BuildDepGraph(tr)
	if g.AverageWidth() <= ArrivalOrderConcurrency() {
		t.Fatalf("DAG replay width %d should beat serial arrival-order replay", g.AverageWidth())
	}
}

func TestDepGraphSerialChain(t *testing.T) {
	// All transactions write the same key: fully serial.
	txns := make([]TracedTxn, 10)
	for i := range txns {
		txns[i] = TracedTxn{ID: i, WriteSet: []uint64{7}}
	}
	g := BuildDepGraph(&Trace{Txns: txns})
	if g.Depth() != 10 {
		t.Fatalf("serial chain depth = %d, want 10", g.Depth())
	}
	if g.AverageWidth() != 1 {
		t.Fatalf("serial chain width = %d, want 1", g.AverageWidth())
	}
}

func TestDepGraphEmpty(t *testing.T) {
	g := BuildDepGraph(&Trace{})
	if g.Len() != 0 || g.Depth() != 0 || g.AverageWidth() != 1 {
		t.Fatal("empty trace should degrade gracefully")
	}
}

func TestSimulateReplayModes(t *testing.T) {
	tr := CaptureProduction(sim.NewRNG(5), "9am", 2000)
	serial, err := SimulateReplay(tr, ReplayArrivalOrder, 64, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	dag, err := SimulateReplay(tr, ReplayDAG, 64, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Slots != 2000 || serial.EffectiveConcurrency != 1 {
		t.Fatalf("arrival-order must be serial: %+v", serial)
	}
	if dag.Slots >= serial.Slots {
		t.Fatalf("DAG replay (%d slots) must beat serial (%d)", dag.Slots, serial.Slots)
	}
	if dag.EffectiveConcurrency <= 1 || dag.PeakWidth < dag.EffectiveConcurrency {
		t.Fatalf("DAG concurrency inconsistent: %+v", dag)
	}
	if dag.Makespan >= serial.Makespan {
		t.Fatal("DAG makespan must be shorter")
	}
	speed, err := ReplaySpeedup(tr, 64)
	if err != nil {
		t.Fatal(err)
	}
	if speed < 2 {
		t.Fatalf("replay speedup %.1f too small for this trace", speed)
	}
}

func TestSimulateReplayWorkerCap(t *testing.T) {
	tr := CaptureProduction(sim.NewRNG(6), "9am", 1000)
	wide, _ := SimulateReplay(tr, ReplayDAG, 1000, time.Millisecond)
	narrow, _ := SimulateReplay(tr, ReplayDAG, 4, time.Millisecond)
	if narrow.Slots <= wide.Slots {
		t.Fatalf("fewer workers must need more slots: %d vs %d", narrow.Slots, wide.Slots)
	}
	if narrow.PeakWidth > 4 {
		t.Fatalf("peak width %d exceeds worker cap", narrow.PeakWidth)
	}
	if narrow.EffectiveConcurrency > 4 {
		t.Fatalf("effective concurrency %d exceeds worker cap", narrow.EffectiveConcurrency)
	}
}

func TestSimulateReplayErrors(t *testing.T) {
	tr := &Trace{}
	if _, err := SimulateReplay(tr, ReplayDAG, 0, time.Millisecond); err == nil {
		t.Fatal("zero workers should error")
	}
	st, err := SimulateReplay(tr, ReplayDAG, 4, time.Millisecond)
	if err != nil || st.Txns != 0 {
		t.Fatalf("empty trace should degrade gracefully: %+v %v", st, err)
	}
	if _, err := SimulateReplay(&Trace{Txns: make([]TracedTxn, 1)}, ReplayMode(9), 1, time.Millisecond); err == nil {
		t.Fatal("unknown mode should error")
	}
	if ReplayDAG.String() != "dag" || ReplayArrivalOrder.String() != "arrival-order" {
		t.Fatal("mode names wrong")
	}
}

func TestTPCCSchemaDerivation(t *testing.T) {
	if n := len(TPCCSchema()); n != 9 {
		t.Fatalf("TPC-C has 9 tables, got %d", n)
	}
	// Per-warehouse cardinalities from the spec.
	rows1 := TPCCRows(1)
	want1 := int64(1 + 10 + 30_000 + 30_000 + 9_000 + 30_000 + 300_000 + 100_000 + 100_000)
	if rows1 != want1 {
		t.Fatalf("rows per warehouse+item = %d, want %d", rows1, want1)
	}
	// Size grows linearly in warehouses (minus the fixed ITEM table).
	d50, d100 := TPCCDataBytes(50), TPCCDataBytes(100)
	if d100 <= d50 || d100 >= 2*d50 {
		t.Fatalf("scaling wrong: 50wh=%d 100wh=%d", d50, d100)
	}
	// Table 2's 8.97 GB at 50 warehouses within 3%.
	want := float64(int64(8_970) << 20)
	if got := float64(d50); got < want*0.97 || got > want*1.03 {
		t.Fatalf("50 warehouses = %.2f GB, want ≈8.97 GB", got/(1<<30))
	}
}
