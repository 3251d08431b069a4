package simdb

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"github.com/hunter-cdb/hunter/internal/knob"
	"github.com/hunter-cdb/hunter/internal/metrics"
	"github.com/hunter-cdb/hunter/internal/sim"
	"github.com/hunter-cdb/hunter/internal/telemetry"
	"github.com/hunter-cdb/hunter/internal/workload"
)

// dialect-specific cost constants (per reference core).
type dialectCosts struct {
	rowCPUms      float64 // CPU per point row access (B-tree walk, row copy)
	scanCPUms     float64 // CPU per page scanned
	txnOverheadMs float64 // per-transaction parse/dispatch/network
	cpuFactor     float64 // scale on the profile's declared CPUMillis
	redoPerRowB   float64 // redo bytes per written row
}

func costsFor(d Dialect) dialectCosts {
	switch d {
	case Postgres:
		return dialectCosts{rowCPUms: 0.072, scanCPUms: 0.042, txnOverheadMs: 0.55, cpuFactor: 1.05, redoPerRowB: 320}
	default:
		return dialectCosts{rowCPUms: 0.062, scanCPUms: 0.045, txnOverheadMs: 0.45, cpuFactor: 1.0, redoPerRowB: 260}
	}
}

// maxSimPages bounds the number of simulated pages so one stress test is
// cheap regardless of dataset size; the pool/data ratio (which determines
// hit ratios) is preserved under scaling.
const maxSimPages = 1 << 16

// measurement sizing.
const (
	measureAccesses = 24000
	lockBatches     = 48
	latencySamples  = 400
	execWindowSec   = 142.7 // Table 1 workload-execution window, for counter scaling
)

// Engine simulates one database server process on one instance.
type Engine struct {
	dialect Dialect
	res     Resources
	costs   dialectCosts
	rng     *sim.RNG

	cfg    knob.Config
	params Params
	booted bool

	pool        *bufferPool
	poolDataKey poolShapeKey // the (dataset, pool shape) the pool was built for
	warmDeltas  bool
	lastWarmupS float64

	// Reusable measurement state. One engine runs thousands of stress
	// tests over its lifetime; everything below amortizes per-Run
	// allocation and recomputation without touching the RNG stream, so
	// results are bit-identical to the unoptimized path.
	plan       accessPlan // workload-derived access plan (cached per profile)
	locks      lockSim    // lock table + per-batch scratch
	writeSets  [][]uint64 // per-transaction write sets for the lock sim
	latScratch []float64  // latency sample buffer

	// NoiseStdDev is the multiplicative measurement noise on throughput
	// and latency (default 1.5%, as real stress tests are never exact).
	NoiseStdDev float64

	// Fault-injection hooks (armed by the chaos layer, one-shot). They are
	// transient per-run state — armed and consumed within a single wave —
	// so they are deliberately excluded from engine snapshots.
	crashArmed bool
	slowFactor float64 // pending slow-I/O multiplier; 0 = none armed
	lastSlow   float64 // factor consumed by the most recent Run; 1 = nominal

	// tel holds pre-resolved telemetry handles; nil (the default) keeps
	// Run free of any observability cost beyond one pointer check.
	tel *engineTel
}

// engineTel is the engine's counter set. Handles are resolved once at
// SetRecorder so the per-Run flush is a handful of lock-free atomic adds
// fed from counters the measurement loop maintains anyway — the hot loop
// itself is untouched.
type engineTel struct {
	runs           *telemetry.Counter
	poolHits       *telemetry.Counter
	poolMisses     *telemetry.Counter
	poolEvictions  *telemetry.Counter
	dirtyEvictions *telemetry.Counter
	fsyncBatches   *telemetry.Counter
	deadlocks      *telemetry.Counter
	lockWaits      *telemetry.Counter
	admissionQueue *telemetry.Gauge
	warmup         *telemetry.Histogram // per-run buffer-pool warm-up (virtual)
}

// SetRecorder attaches the engine to a telemetry recorder: after every
// successful Run the engine flushes its buffer-pool, fsync and lock
// observations into the recorder's counters. A nil recorder detaches.
func (e *Engine) SetRecorder(r *telemetry.Recorder) {
	if r == nil {
		e.tel = nil
		return
	}
	e.tel = &engineTel{
		runs:           r.Counter("simdb.stress_tests"),
		poolHits:       r.Counter("simdb.bufferpool.hits"),
		poolMisses:     r.Counter("simdb.bufferpool.misses"),
		poolEvictions:  r.Counter("simdb.bufferpool.evictions"),
		dirtyEvictions: r.Counter("simdb.bufferpool.dirty_evictions"),
		fsyncBatches:   r.Counter("simdb.fsync_batches"),
		deadlocks:      r.Counter("simdb.deadlocks"),
		lockWaits:      r.Counter("simdb.row_lock_waits"),
		admissionQueue: r.Gauge("simdb.admission_queue_depth"),
		warmup:         r.Histogram("simdb.warmup_seconds"),
	}
}

// flushTelemetry reports one completed stress test. Pool counters were
// reset before the measured stream, so they describe exactly this Run;
// fsync/lock figures come from the assembled metric snapshot.
func (e *Engine) flushTelemetry(p *workload.Profile, mv metrics.Vector) {
	t := e.tel
	t.runs.Add(1)
	t.poolHits.Add(e.pool.hits)
	t.poolMisses.Add(e.pool.misses)
	t.poolEvictions.Add(e.pool.evictions)
	t.dirtyEvictions.Add(e.pool.dirtyEvictions)
	t.fsyncBatches.Add(int64(mv[metrics.DataFsyncs]))
	t.deadlocks.Add(int64(mv[metrics.LockDeadlocks]))
	t.lockWaits.Add(int64(mv[metrics.RowLockWaits]))
	queued := p.EffectiveThreads() - e.admitted(p)
	if queued < 0 {
		queued = 0
	}
	t.admissionQueue.Set(float64(queued))
	t.warmup.Observe(time.Duration(e.lastWarmupS * float64(time.Second)))
}

// poolShapeKey identifies the (dataset, pool shape, insertion policy) a
// buffer pool was built for; comparing struct keys replaced a fmt.Sprintf
// on every Run.
type poolShapeKey struct {
	profile      string
	simPoolPages int
	simDataPages int64
	oldBlocksPct float64
	promote2nd   bool
}

// accessPlan caches the workload-derived quantities of the measurement
// loop that depend only on the profile and the simulation geometry — mix
// averages, cumulative class weights, per-class scan page counts and the
// transaction budget. The plan survives reconfiguration (knobs change the
// pool shape, not the dataset geometry), so the per-Run cost of rebuilding
// it was pure waste. All cached values are computed with exactly the same
// floating-point operations as the inline code they replace.
type accessPlan struct {
	profile   *workload.Profile // identity guard
	rows      int64
	dataBytes int64
	frac      float64 // MeasureFraction the plan was sized for

	reads, writes, scanRows, cpuMs, tempTables float64
	writeFraction                              float64
	txns                                       int // measurement transactions
	weightSum                                  float64
	cumWeight                                  []float64 // cumulative class weights, see pickClass
	scanPages                                  []int     // per-class pages accessed per range scan
}

// planFor returns the cached access plan for p at shape sh, rebuilding it
// when the profile changed (new session or workload drift).
func (e *Engine) planFor(p *workload.Profile, sh simShape) *accessPlan {
	pl := &e.plan
	if pl.profile == p && pl.rows == p.Rows && pl.dataBytes == p.DataBytes && pl.frac == p.MeasureFraction {
		return pl
	}
	pl.profile, pl.rows, pl.dataBytes, pl.frac = p, p.Rows, p.DataBytes, p.MeasureFraction
	pl.reads, pl.writes, pl.scanRows, pl.cpuMs, pl.tempTables = p.Averages()
	pl.writeFraction = p.WriteFraction()

	scanPages := pl.scanRows / sh.rowsPerPage
	perTxn := pl.reads + pl.writes + scanPages
	if perTxn <= 0 {
		perTxn = 1
	}
	// A compressed kernel measures a fraction of the full access budget;
	// the guard keeps 0 (unset) and 1 on the exact full-effort arithmetic.
	budget := float64(measureAccesses)
	if f := p.MeasureFraction; f > 0 && f < 1 {
		budget *= f
	}
	pl.txns = int(budget / perTxn)
	if pl.txns < 50 {
		pl.txns = 50
	}

	pl.cumWeight = pl.cumWeight[:0]
	pl.weightSum = 0
	var acc float64
	for _, c := range p.Mix {
		pl.weightSum += c.Weight
		acc += c.Weight
		pl.cumWeight = append(pl.cumWeight, acc)
	}
	pl.scanPages = pl.scanPages[:0]
	for _, c := range p.Mix {
		sp := 0
		if c.ScanRows > 0 {
			sp = int(math.Ceil(float64(c.ScanRows) / sh.rowsPerPage / float64(sh.scale)))
			if sp < 1 {
				sp = 1
			}
		}
		pl.scanPages = append(pl.scanPages, sp)
	}
	return pl
}

// pickClass selects a class index from u ∈ [0,1): the first class whose
// cumulative weight exceeds u times the total, the last one if none does.
func (pl *accessPlan) pickClass(u float64) int {
	target := u * pl.weightSum
	for i, acc := range pl.cumWeight {
		if target < acc {
			return i
		}
	}
	return len(pl.cumWeight) - 1
}

// NewEngine creates an engine for the dialect on the given hardware,
// booted with the catalog's default configuration.
func NewEngine(d Dialect, res Resources, seed int64) (*Engine, error) {
	if err := res.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{
		dialect:     d,
		res:         res,
		costs:       costsFor(d),
		rng:         sim.NewRNG(seed),
		NoiseStdDev: 0.015,
	}
	if err := e.Configure(e.Catalog().Defaults()); err != nil {
		return nil, fmt.Errorf("simdb: default configuration does not boot: %w", err)
	}
	return e, nil
}

// Catalog returns the knob catalog for the engine's dialect.
func (e *Engine) Catalog() *knob.Catalog {
	if e.dialect == Postgres {
		return knob.Postgres()
	}
	return knob.MySQL()
}

// Dialect returns the engine's dialect.
func (e *Engine) Dialect() Dialect { return e.dialect }

// Resources returns the instance hardware.
func (e *Engine) Resources() Resources { return e.res }

// Config returns the active configuration.
func (e *Engine) Config() knob.Config { return e.cfg.Clone() }

// SetWarmDeltas toggles warm-state delta evaluation: when a
// reconfiguration moves only the pool shape or LRU policy for the same
// dataset, the warm buffer pool is adjusted in place (online resize /
// dynamic policy change, as the real server does) instead of rebuilt and
// re-warmed. Off by default. This is runtime evaluation configuration,
// not engine state — it is deliberately excluded from snapshots, and
// callers re-apply it after a restore.
func (e *Engine) SetWarmDeltas(on bool) { e.warmDeltas = on }

// Configure deploys a configuration. It returns an error when the
// instance cannot boot under it (awful configurations, §2.1); the engine
// then stays on its previous configuration.
func (e *Engine) Configure(cfg knob.Config) error {
	p := ParamsFrom(e.dialect, cfg)
	if err := p.ValidateBoot(e.res, 512); err != nil {
		return err
	}
	e.cfg = cfg.Clone()
	e.params = p
	e.booted = true
	return nil
}

// LastWarmupSeconds reports the simulated warm-up time of the most recent
// Run (0 when the pool was already warm).
func (e *Engine) LastWarmupSeconds() float64 { return e.lastWarmupS }

// simShape describes the scaled simulation geometry for a dataset.
type simShape struct {
	scale        int64
	simDataPages int64
	simPoolPages int
	rowsPerPage  float64
}

func (e *Engine) shape(p *workload.Profile) simShape {
	dataPages := p.DataBytes / PageSize
	if dataPages < 1 {
		dataPages = 1
	}
	scale := (dataPages + maxSimPages - 1) / maxSimPages
	if scale < 1 {
		scale = 1
	}
	simData := dataPages / scale
	if simData < 1 {
		simData = 1
	}
	poolPages := int64(e.params.BufferPoolBytes) / PageSize / scale
	if poolPages > simData {
		poolPages = simData
	}
	if poolPages < 8 {
		poolPages = 8
	}
	return simShape{
		scale:        scale,
		simDataPages: simData,
		simPoolPages: int(poolPages),
		rowsPerPage:  float64(p.Rows) / float64(dataPages),
	}
}

// measured holds the mechanistic observations of one stress test.
type measured struct {
	hitRatio      float64
	dirtyPerWrite float64 // unique pages dirtied per row write (dedup factor)
	evictWrites   float64 // forced write-backs of dirty evictions, per row write
	conflictProb  float64
	deadlockProb  float64
	evictions     int64
	promotions    int64
}

// measurePool replays a representative access stream through the LRU and
// samples lock conflicts from the workload's key distribution.
func (e *Engine) measurePool(p *workload.Profile, sh simShape, pl *accessPlan) measured {
	poolKey := poolShapeKey{
		profile:      p.Name,
		simPoolPages: sh.simPoolPages,
		simDataPages: sh.simDataPages,
		oldBlocksPct: e.params.OldBlocksPct,
		promote2nd:   e.params.PromoteOnSecondHit,
	}
	switch {
	case e.pool != nil && e.poolDataKey == poolKey:
		e.lastWarmupS = 0
	case e.warmDeltas && e.pool != nil &&
		e.poolDataKey.profile == poolKey.profile &&
		e.poolDataKey.simDataPages == poolKey.simDataPages:
		// Warm-state delta: the dataset is unchanged and only the pool
		// shape or LRU policy moved, both of which the real server applies
		// online (innodb_buffer_pool_size resizes online,
		// innodb_old_blocks_pct is dynamic). Adjust the warm pool in place
		// instead of discarding it and re-warming from scratch.
		if e.poolDataKey.simPoolPages != poolKey.simPoolPages {
			e.pool.resize(sh.simPoolPages)
		}
		if e.poolDataKey.oldBlocksPct != poolKey.oldBlocksPct ||
			e.poolDataKey.promote2nd != poolKey.promote2nd {
			e.pool.setPolicy(e.params.OldBlocksPct, e.params.PromoteOnSecondHit)
		}
		e.poolDataKey = poolKey
		e.lastWarmupS = 0
	default:
		if e.pool == nil {
			e.pool = newBufferPool(sh.simPoolPages, e.params.OldBlocksPct, e.params.PromoteOnSecondHit)
		} else {
			e.pool.reset(sh.simPoolPages, e.params.OldBlocksPct, e.params.PromoteOnSecondHit)
		}
		e.poolDataKey = poolKey
		// Warm-up: the CDB warm-up function (§5) reloads the saved buffer
		// pool on restart, so the pool starts at its steady-state content.
		warmOps := 3 * sh.simPoolPages
		if warmOps > 150000 {
			warmOps = 150000
		}
		z := sim.NewZipf(e.rng, p.Skew, uint64(sh.simDataPages))
		for i := 0; i < warmOps; i++ {
			e.pool.Access(uint32(z.Next()), false, false)
		}
		// Paper §5: warm-up ≈5 s for an 8 GB dataset, growing with size.
		e.lastWarmupS = 5 * float64(sh.simPoolPages*int(sh.scale)) / (512 << 20 / PageSize)
	}
	e.pool.ResetCounters()

	z := sim.NewZipf(e.rng, p.Skew, uint64(sh.simDataPages))
	dirtyBefore := e.pool.dirtyPages
	var rowWrites int
	for t := 0; t < pl.txns; t++ {
		ci := pl.pickClass(e.rng.Float64())
		c := &p.Mix[ci]
		for i := 0; i < c.PointReads; i++ {
			e.pool.Access(uint32(z.Next()), false, false)
		}
		for i := 0; i < c.PointWrites; i++ {
			e.pool.Access(uint32(z.Next()), true, false)
			rowWrites++
		}
		if c.ScanRows > 0 {
			sp := pl.scanPages[ci]
			start := uint32(e.rng.Int63n(sh.simDataPages))
			for i := 0; i < sp; i++ {
				e.pool.Access((start+uint32(i))%uint32(sh.simDataPages), false, true)
			}
		}
	}
	m := measured{
		hitRatio:   e.pool.HitRatio(),
		evictions:  e.pool.evictions,
		promotions: e.pool.youngPromotes,
	}
	if rowWrites > 0 {
		newDirty := e.pool.dirtyPages - dirtyBefore + int(e.pool.dirtyEvictions)
		if newDirty < 0 {
			newDirty = 0
		}
		// Unique pages dirtied per row write: bounded by 1, with a floor
		// reflecting redo for already-dirty pages.
		m.dirtyPerWrite = sim.Clamp(float64(newDirty)/float64(rowWrites), 0.02, 1)
		m.evictWrites = float64(e.pool.dirtyEvictions) / float64(rowWrites)
	}

	// Lock-conflict measurement: play concurrent batches of transactions
	// against a real lock table with wait-for-graph deadlock detection.
	// Hot-set writes (warehouse/district counters and the like) dominate
	// the conflicts; cold writes draw from the full key space.
	conc := e.admitted(p)
	batch := conc
	if batch > 256 {
		batch = 256
	}
	if batch < 2 {
		batch = 2
	}
	// Keep the total simulated transactions roughly constant: large
	// concurrencies need fewer (but bigger) batches for the same
	// statistical power.
	batches := lockBatches
	if batch > 32 {
		batches = 1024 / batch
		if batches < 6 {
			batches = 6
		}
	}
	// Compressed kernels sample fewer lock batches too, with a floor so
	// conflict probability keeps at least two independent observations.
	if f := p.MeasureFraction; f > 0 && f < 1 {
		batches = int(float64(batches) * f)
		if batches < 2 {
			batches = 2
		}
	}
	var conflicted, total, deadlocks int
	zRows := sim.NewZipf(e.rng, p.Skew, uint64(p.Rows))
	if len(e.writeSets) < batch {
		grown := make([][]uint64, batch)
		copy(grown, e.writeSets)
		e.writeSets = grown
	}
	writeSets := e.writeSets[:batch]
	for b := 0; b < batches; b++ {
		for t := 0; t < batch; t++ {
			c := &p.Mix[pl.pickClass(e.rng.Float64())]
			ws := writeSets[t][:0]
			for i := 0; i < c.HotWrites && p.HotSetSize > 0; i++ {
				ws = append(ws, uint64(e.rng.Int63n(p.HotSetSize)))
			}
			for i := 0; i < c.PointWrites-c.HotWrites; i++ {
				ws = append(ws, zRows.Next()+1<<32) // distinct namespace from hot set
			}
			// Most transactions acquire rows in a consistent (index)
			// order, which prevents wait-for cycles; a minority of ad-hoc
			// code paths lock in arrival order and cause the occasional
			// real deadlock, as in production OLTP.
			if e.rng.Float64() < 0.92 || len(ws) > 8 {
				slices.Sort(ws)
			}
			writeSets[t] = ws
		}
		cf, dl := e.locks.run(writeSets)
		conflicted += cf
		deadlocks += dl
		total += batch
	}
	if total > 0 {
		m.conflictProb = float64(conflicted) / float64(total)
		// The lock-step round-robin interleaving above is the worst case
		// for crossing acquisitions; real transactions start staggered,
		// so only a fraction of the simulated cycles materialize.
		m.deadlockProb = 0.15 * float64(deadlocks) / float64(total)
	}
	return m
}

// admitted returns the concurrency the engine actually runs: client
// threads capped by max_connections, innodb_thread_concurrency and the
// thread pool.
func (e *Engine) admitted(p *workload.Profile) int {
	c := p.EffectiveThreads()
	if mc := int(e.params.MaxConnections); c > mc {
		c = mc
	}
	if tc := e.params.ThreadConcurrency; tc > 0 && c > tc {
		c = tc
	}
	if e.params.ThreadPool {
		if cap := e.res.Cores * 4; c > cap {
			c = cap
		}
	}
	if c < 1 {
		c = 1
	}
	return c
}

// ErrCrashed is returned by Run when an injected crash takes the engine
// down mid-stress-test. The process is gone: the engine reports unbooted
// until Configure brings it back up.
var ErrCrashed = errors.New("simdb: engine crashed during stress test")

// InjectCrash arms a one-shot crash: the next Run fails with ErrCrashed
// and the engine goes down. Fault-injection hook; never fires on its own.
func (e *Engine) InjectCrash() { e.crashArmed = true }

// InjectSlowIO arms a one-shot I/O degradation: the next Run completes
// normally but LastSlowFactor reports f (>= 1), which the caller applies
// to the run's virtual duration. Fault-injection hook.
func (e *Engine) InjectSlowIO(f float64) {
	if f < 1 {
		f = 1
	}
	e.slowFactor = f
}

// LastSlowFactor reports the slow-I/O multiplier consumed by the most
// recent Run (1 when the run was nominal).
func (e *Engine) LastSlowFactor() float64 {
	if e.lastSlow < 1 {
		return 1
	}
	return e.lastSlow
}

// Run stress-tests the active configuration with the given workload and
// returns the measured performance and the 63-metric state snapshot.
func (e *Engine) Run(p *workload.Profile) (Perf, metrics.Vector, error) {
	if !e.booted {
		return FailedPerf(), nil, fmt.Errorf("simdb: engine not booted")
	}
	if e.crashArmed {
		e.crashArmed = false
		e.booted = false
		// The crash supersedes any pending straggler: a rebooted engine
		// must not inherit a stale slow-I/O factor.
		e.slowFactor = 0
		e.lastSlow = 1
		return FailedPerf(), nil, ErrCrashed
	}
	e.lastSlow, e.slowFactor = e.slowFactor, 0
	if e.lastSlow < 1 {
		e.lastSlow = 1
	}
	if err := p.Validate(); err != nil {
		return FailedPerf(), nil, err
	}
	sh := e.shape(p)
	pl := e.planFor(p, sh)
	m := e.measurePool(p, sh, pl)
	perf, mv := e.assemble(p, sh, pl, m)
	if e.tel != nil {
		e.flushTelemetry(p, mv)
	}
	return perf, mv, nil
}

// assemble combines the mechanistic measurements with a closed-system
// queueing model over the instance's CPU, disk and fsync resources.
func (e *Engine) assemble(p *workload.Profile, sh simShape, pl *accessPlan, m measured) (Perf, metrics.Vector) {
	par := &e.params
	reads, writes, scanRows, cpuMs, tempTables := pl.reads, pl.writes, pl.scanRows, pl.cpuMs, pl.tempTables
	scanPages := scanRows / sh.rowsPerPage
	clientThreads := float64(p.EffectiveThreads())
	if mc := par.MaxConnections; clientThreads > mc {
		clientThreads = mc
	}
	conc := float64(e.admitted(p))
	cores := float64(e.res.Cores)

	// --- CPU demand per transaction (ms of one core) ---
	rowCPU := e.costs.rowCPUms / e.res.CoreSpeed
	readCPU := rowCPU
	if par.AdaptiveHash {
		readCPU *= 0.88 // hash shortcut on hot B-tree paths
	}
	if par.QueryCacheBytes > 1<<20 && pl.writeFraction < 0.05 {
		readCPU *= 0.82 // query cache helps only (nearly) read-only load
	}
	writeCPU := rowCPU * 1.25
	if par.AdaptiveHash && conc > 4*cores && writes > 0 {
		writeCPU *= 1.10 // AHI latch contention under concurrent writes
	}
	// Change buffering absorbs secondary-index maintenance on uncached
	// pages; its benefit scales with the miss ratio.
	writeCPU *= 1 - 0.18*par.ChangeBuffering*(1-m.hitRatio)
	if par.AutovacuumOff {
		readCPU *= 1.07 // table bloat makes every access a little dearer
		writeCPU *= 1.07
	}
	// Spin-wait tuning: a mid-range delay is best once concurrency is
	// high; extremes waste CPU (0 = immediate syscall, huge = burning).
	spinPenalty := 1.0
	if conc > 2*cores {
		d := par.SpinWaitDelay
		spinPenalty = 1 + 0.06*math.Abs(math.Log2((d+1)/7))*math.Min(conc/(8*cores), 1.5)
	}
	// Thread thrashing: far more runnable threads than cores costs context
	// switches unless the thread pool serializes them.
	thrash := 1.0
	if !par.ThreadPool {
		over := conc / (cores * 8)
		if over > 1 {
			thrash = 1 + 0.30*(over-1)
			if thrash > 3 {
				thrash = 3
			}
		}
	}
	// Thread cache: connection churn overhead when the cache is tiny
	// relative to the client count.
	churn := 0.0
	if par.ThreadCacheSize < clientThreads/8 {
		churn = 0.08
	}
	cpuPerTxn := (e.costs.txnOverheadMs + churn +
		reads*readCPU + writes*writeCPU + scanPages*e.costs.scanCPUms/e.res.CoreSpeed +
		cpuMs*e.costs.cpuFactor/e.res.CoreSpeed) * thrash * spinPenalty

	// Query cache invalidation mutex: global serialization on writes.
	qcSerialMs := 0.0
	if par.QueryCacheBytes > 1<<20 && writes > 0 {
		qcSerialMs = 0.012 * writes
	}

	// --- Temp table spills ---
	spillIOs, spillMs := 0.0, 0.0
	if tempTables > 0 {
		need := 96.0 * 1024 // bytes a benchmark sort/temp table needs
		if par.SortBufferBytes < need || par.TmpTableBytes < 4*need {
			spillIOs = tempTables * 2
			spillMs = tempTables * 0.25
		}
	}

	// --- Buffer misses and the OS page-cache assist ---
	// Misses can still be served from the OS page cache when the server
	// uses buffered I/O, but a page-cache hit costs a syscall and memcpy
	// and the double-buffered memory is far less effective per byte than
	// the buffer pool (the reason O_DIRECT plus a large pool wins).
	missPerTxn := (reads + writes + scanPages) * (1 - m.hitRatio)
	osCacheBytes := math.Max(0, float64(e.res.RAMBytes)-par.BufferPoolBytes-par.SessionMemoryBytes(int(clientThreads)))
	pOS := 0.0
	if par.OSCacheAssist {
		pOS = sim.Clamp(0.75*osCacheBytes/float64(p.DataBytes), 0, 0.55)
	}
	diskReadsPerTxn := missPerTxn*(1-pOS) + spillIOs
	osHitMs := missPerTxn * pOS * 0.18 // syscall + memcpy from page cache

	// --- Redo / commit path ---
	// Row redo plus full-page images for every newly dirtied page
	// (PostgreSQL full_page_writes).
	redoPerTxnB := writes*e.costs.redoPerRowB*par.RedoAmplify +
		writes*m.dirtyPerWrite*par.PageImageBytes
	fsyncLat := e.res.FsyncLatencyMs
	commitMs, fsyncPerTxn := 0.0, 0.0
	switch par.FlushAtCommit {
	case 1:
		// Group commit: commits arriving during one fsync share it; the
		// flush itself takes longer the more redo the group carries
		// (full-page writes and doublewrite inflate this).
		group := math.Max(1, math.Min(conc, 1+0.001*fsyncLat*conc*8)) * par.groupBoost()
		if group > 64 {
			group = 64
		}
		flushVolume := 1 + redoPerTxnB*group/(2<<20)
		commitMs = fsyncLat * (0.5 + 1/group) * flushVolume
		fsyncPerTxn = 1 / group
	case 2:
		commitMs = 0.06
		fsyncPerTxn = 0.02 // background once per second, amortized
	default:
		commitMs = 0.02
	}
	if par.BinlogSyncEvery >= 1 && writes > 0 && e.dialect == MySQL {
		n := par.BinlogSyncEvery
		commitMs += fsyncLat * 1.1 / n
		fsyncPerTxn += 1 / n
	}
	// Undersized log buffer forces waits when concurrent redo exceeds it.
	logWaitMs := 0.0
	if need := redoPerTxnB * conc; need > par.LogBufferBytes && redoPerTxnB > 0 {
		logWaitMs = 0.15 * math.Min(need/par.LogBufferBytes-1, 4)
	}

	// --- Closed-system throughput and latency via Schweitzer MVA ---
	// The admitted transactions form a closed queueing network over three
	// contended stations — CPU, disk capacity, and the serial log device —
	// plus a delay term Z (per-transaction work that does not queue).
	// Schweitzer's approximate mean value analysis gives a stable,
	// capacity-respecting solution: throughput can never exceed the
	// bottleneck station's rate, and latency grows with population.
	//
	// Demands are in seconds per transaction of each resource.
	dCPU := cpuPerTxn / 1000 / cores

	// Background page flushing competes for disk capacity. Write
	// combining: a dirty page absorbs many row writes before the cleaner
	// flushes it once per cycle, but a small pool evicts dirty pages
	// early and forfeits the combining (another way a large buffer pool
	// pays off).
	writeCombine := sim.Clamp(0.12+0.5*(1-m.hitRatio), 0.12, 0.62)
	// Dirty pages evicted before the cleaner reaches them are synchronous
	// write-backs with no combining — the measured write amplification of
	// an undersized pool.
	pageWritePerTxn := writes*(m.dirtyPerWrite-m.evictWrites)*writeCombine + writes*m.evictWrites
	if pageWritePerTxn < 0 {
		pageWritePerTxn = 0
	}
	if par.Doublewrite {
		pageWritePerTxn *= 2
	}
	cleanerCap := par.IOCapacity * (0.6 + 0.4*math.Min(float64(par.PageCleaners), cores)/cores)
	burstCap := math.Max(par.IOCapacityMax, cleanerCap)

	// Flush backpressure and checkpoint pressure depend on throughput;
	// resolve them inside the outer fixed point below.
	N := conc
	zBase := e.costs.txnOverheadMs + osHitMs + logWaitMs + qcSerialMs + spillMs +
		diskReadsPerTxn*e.res.DiskReadLatencyMs
	var tps, lat, lockWaitMs, stallMs float64
	var rhoCPU, rhoDisk float64
	var flushIOPS, pageWriteRate float64
	lat = zBase + cpuPerTxn + commitMs + 1
	for outer := 0; outer < 6; outer++ {
		goodFrac := 1 - m.deadlockProb

		// Station demands (seconds/txn). The page cleaners also perform
		// maintenance I/O (pre-flushing, change-buffer merges, neighbor
		// flushing) proportional to the configured capacity, so an
		// io_capacity far above the actual write rate steals disk from
		// foreground reads — the knob must be matched, not maximized.
		curTPS := math.Max(tpsOr(tps, 100), 1)
		// InnoDB treats io_capacity as a *target* rate (idle flushing,
		// change-buffer merges run at it), so oversizing it wastes disk;
		// PostgreSQL's bgwriter settings are only a cap and waste little.
		maintFrac := 0.12
		if par.Dialect == Postgres {
			maintFrac = 0.02
		}
		maintIOPS := maintFrac * par.IOCapacity
		if par.FlushNeighborsMaint() {
			maintIOPS *= 1.3
		}
		// Background maintenance yields to foreground work: no matter how
		// absurdly the knobs are set, it cannot consume more than a slice
		// of the physical disk.
		if cap := 0.30 * e.res.DiskIOPS; maintIOPS > cap {
			maintIOPS = cap
		}
		maintPerTxn := maintIOPS / curTPS
		flushPerTxn := math.Min(pageWritePerTxn, burstCap/curTPS)
		dDisk := (diskReadsPerTxn + fsyncPerTxn + flushPerTxn + maintPerTxn) / e.res.DiskIOPS
		dLog := fsyncPerTxn * e.res.FsyncLatencyMs / 1000

		// Row-lock waits: a conflicting transaction waits for a fraction
		// of the holder's residence time (bounded by the lock timeout).
		lockWaitMs = m.conflictProb * 0.45 * lat
		if max := par.LockWaitTimeoutS * 1000; lockWaitMs > max {
			lockWaitMs = max
		}
		lockWaitMs += m.deadlockProb * par.DeadlockTimeoutMs

		// Stalls from flushing/checkpoints at the current throughput.
		stallMs = 0
		pageWriteRate = tpsOr(tps, 100) * goodFrac * pageWritePerTxn
		if pageWriteRate > cleanerCap {
			deficit := pageWriteRate/cleanerCap - 1
			headroom := par.MaxDirtyPct / 100
			s := 4 * deficit * (1.2 - headroom)
			if s > 0 {
				stallMs += s
			}
		}
		redoRate := tpsOr(tps, 100) * goodFrac * redoPerTxnB
		if redoRate > 0 {
			interval := 0.8 * par.LogCapacityBytes / redoRate
			if interval < 90 {
				spike := (90/interval - 1) * 1.5
				relief := 1 - 0.5*par.CkptSpread
				if par.AdaptiveFlushing {
					relief *= 0.65
				}
				// A high dirty-page watermark lets more dirty pages pile
				// up before a sync checkpoint, enlarging the spike; a low
				// one stalls earlier (the deficit term above). Optimal is
				// in between.
				relief *= 0.4 + 0.8*(par.MaxDirtyPct/100)
				stallMs += spike * relief
			}
		}
		// Memory-budget pressure: a buffer pool plus session buffers near
		// the RAM limit starts swapping before it fails to boot.
		memBudget := par.BufferPoolBytes + par.SessionMemoryBytes(int(clientThreads))
		if over := memBudget/float64(e.res.RAMBytes) - 0.90; over > 0 {
			stallMs += over * 300
		}
		z := (zBase + commitMs + lockWaitMs + stallMs) / 1000 // seconds

		// Inner Schweitzer MVA over the three queueing stations.
		d := [3]float64{dCPU, dDisk, dLog}
		var q [3]float64
		for k := range q {
			q[k] = N / 3
		}
		var r [3]float64
		for it := 0; it < 40; it++ {
			var rt float64
			for k := range d {
				r[k] = d[k] * (1 + q[k]*(N-1)/N)
				rt += r[k]
			}
			x := N / (rt + z)
			for k := range d {
				q[k] = x * r[k]
			}
		}
		rTotal := r[0] + r[1] + r[2] + z
		tps = N / rTotal
		lat = rTotal * 1000
		rhoCPU = sim.Clamp(tps*dCPU, 0, 1)
		rhoDisk = sim.Clamp(tps*dDisk, 0, 1)
		flushIOPS = math.Min(pageWriteRate, burstCap)
	}
	tps *= 1 - m.deadlockProb
	// Clients beyond the admission limit queue in front of the engine.
	userLat := lat * clientThreads / conc

	// --- Latency distribution for tail percentiles ---
	if cap(e.latScratch) < latencySamples {
		e.latScratch = make([]float64, latencySamples)
	}
	samples := e.latScratch[:latencySamples]
	stallProb := sim.Clamp(stallMs/(stallMs+8), 0, 0.5)
	for i := range samples {
		v := userLat * math.Exp(e.rng.Gaussian(0, 0.22))
		if e.rng.Float64() < stallProb {
			v *= 1.5 + 2.5*e.rng.Float64()
		}
		samples[i] = v
	}
	sort.Float64s(samples)
	perf := Perf{
		ThroughputTPS: tps * (1 + e.rng.Gaussian(0, e.NoiseStdDev)),
		AvgLatencyMs:  mean(samples),
		P95LatencyMs:  samples[int(0.95*float64(len(samples)))] * (1 + e.rng.Gaussian(0, e.NoiseStdDev)),
		P99LatencyMs:  samples[int(0.99*float64(len(samples)))],
	}
	if perf.ThroughputTPS < 0.1 {
		perf.ThroughputTPS = 0.1
	}

	mv := e.fillMetrics(p, sh, m, perf, fill{
		conc: conc, rhoCPU: rhoCPU, rhoDisk: rhoDisk,
		diskReadsPerTxn: diskReadsPerTxn, fsyncPerTxn: fsyncPerTxn,
		pageWriteRate: pageWriteRate, flushIOPS: flushIOPS,
		redoPerTxnB: redoPerTxnB, lockWaitMs: lockWaitMs,
		reads: reads, writes: writes, scanPages: scanPages, tempTables: tempTables,
		clientThreads: clientThreads,
	})
	return perf, mv
}

// groupBoost returns the commit-group enlargement from commit_delay.
func (p *Params) groupBoost() float64 {
	if p.GroupCommitBoost < 1 {
		return 1
	}
	return p.GroupCommitBoost
}

// tpsOr returns t when positive, else the fallback, for quantities that
// need a throughput estimate before the first outer iteration.
func tpsOr(t, fallback float64) float64 {
	if t > 0 {
		return t
	}
	return fallback
}

func mean(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}
