// Package workload defines the stress-test workloads of the paper's
// evaluation (Table 2): the three Sysbench OLTP mixes, TPC-C, and the
// real-world "Production" workload, plus the trace-capture and
// dependency-graph replay machinery of §2.1.
//
// A workload is described to the engine as a Profile: a transaction mix
// with per-class read/write/scan/CPU demands, a key-access skew, and a
// client thread count. The simulated engine measures buffer-pool and lock
// behaviour directly from the profile's access stream.
package workload

import (
	"fmt"
	"math"
)

// TxnClass is one transaction type in a mix (e.g. TPC-C NewOrder).
type TxnClass struct {
	Name string
	// Weight is the relative frequency of this class in the mix.
	Weight float64
	// PointReads and PointWrites are row-level accesses per transaction.
	PointReads  int
	PointWrites int
	// ScanRows is the number of rows touched by range scans per
	// transaction (drives sequential page reads and scan resistance in
	// the buffer pool).
	ScanRows int
	// CPUMillis is the pure computation demand per transaction on one
	// reference core, excluding I/O and lock waits.
	CPUMillis float64
	// TempTables counts implicit temp tables per transaction (sorts,
	// GROUP BY), which interact with tmp_table_size/work_mem.
	TempTables float64
	// HotWrites counts writes against the workload's small hot-row set
	// (e.g. TPC-C district/warehouse counters), the dominant source of
	// row-lock contention.
	HotWrites int
}

// Profile is the engine-facing description of a workload.
type Profile struct {
	Name string
	// Tables and Rows describe the dataset; DataBytes its on-disk size.
	Tables    int
	Rows      int64
	DataBytes int64
	// Threads is the number of client connections issuing transactions.
	Threads int
	// Skew is the Zipf exponent of key popularity (>1; higher = hotter
	// hot set). OLTP benchmarks default to mild skew; production traffic
	// is typically hotter.
	Skew float64
	// Mix is the transaction class mix.
	Mix []TxnClass
	// HotSetSize is the cardinality of the hot-row set HotWrites draws
	// from (0 when the workload has no such set).
	HotSetSize int64
	// ReplayConcurrency, when non-zero, overrides Threads as the
	// effective concurrency: trace replay is limited by the dependency
	// structure of the captured transactions rather than by client
	// threads (§2.1, Figure 3).
	ReplayConcurrency int
	// MeasureFraction scales the engine's measurement effort for this
	// profile: a compressed kernel measures a fraction of the full access
	// stream and lock batches per stress test, at bounded fidelity loss
	// (see CompressTrace). 0 (the default) and 1 both mean full effort;
	// the virtual-time cost of a stress test is unchanged either way —
	// the measurement window of Table 1 is fixed, only the simulation
	// work shrinks.
	MeasureFraction float64
}

// Validate checks profile consistency.
func (p *Profile) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("workload: empty name")
	}
	if p.Rows <= 0 || p.DataBytes <= 0 {
		return fmt.Errorf("workload %s: dataset must be positive", p.Name)
	}
	if p.Threads <= 0 {
		return fmt.Errorf("workload %s: threads must be positive", p.Name)
	}
	if len(p.Mix) == 0 {
		return fmt.Errorf("workload %s: empty transaction mix", p.Name)
	}
	var w float64
	for _, c := range p.Mix {
		if c.Weight < 0 || math.IsNaN(c.Weight) || math.IsInf(c.Weight, 0) {
			return fmt.Errorf("workload %s: weight %g in class %s is negative or not finite", p.Name, c.Weight, c.Name)
		}
		w += c.Weight
	}
	if w <= 0 {
		return fmt.Errorf("workload %s: mix weights sum to zero", p.Name)
	}
	if !(p.MeasureFraction >= 0 && p.MeasureFraction <= 1) {
		return fmt.Errorf("workload %s: measure fraction %g outside [0,1]", p.Name, p.MeasureFraction)
	}
	// A non-finite exponent never accepts a Zipf draw: the stress test
	// would spin forever.
	if math.IsNaN(p.Skew) || math.IsInf(p.Skew, 0) {
		return fmt.Errorf("workload %s: skew %g is not finite", p.Name, p.Skew)
	}
	return nil
}

// WithMeasureFraction returns a copy of p whose stress-test measurement
// effort is scaled to f ∈ (0,1]. The mix itself is untouched — this is the
// compression mode for synthetic benchmarks whose mix is already compact
// (TPC-C, sysbench); trace-backed workloads should go through CompressTrace
// instead, which also collapses the mix.
func (p *Profile) WithMeasureFraction(f float64) *Profile {
	q := *p
	q.Mix = append([]TxnClass(nil), p.Mix...)
	q.MeasureFraction = f
	return &q
}

// EffectiveThreads is the concurrency the engine should model.
func (p *Profile) EffectiveThreads() int {
	if p.ReplayConcurrency > 0 && p.ReplayConcurrency < p.Threads {
		return p.ReplayConcurrency
	}
	return p.Threads
}

// Averages returns the mix-weighted mean demands per transaction.
func (p *Profile) Averages() (reads, writes, scanRows, cpuMillis, tempTables float64) {
	var w float64
	for _, c := range p.Mix {
		w += c.Weight
	}
	for _, c := range p.Mix {
		f := c.Weight / w
		reads += f * float64(c.PointReads)
		writes += f * float64(c.PointWrites)
		scanRows += f * float64(c.ScanRows)
		cpuMillis += f * c.CPUMillis
		tempTables += f * c.TempTables
	}
	return
}

// WriteFraction returns the fraction of row accesses that are writes.
func (p *Profile) WriteFraction() float64 {
	r, wr, scan, _, _ := p.Averages()
	total := r + wr + scan
	if total == 0 {
		return 0
	}
	return wr / total
}
