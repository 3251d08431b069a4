// Package parallel is the deterministic fork–join layer under the coarse
// fan-outs: random-forest trees, experiment sessions, hunter-repro's
// experiment overlap and the fleet's tenant rounds.
//
// Determinism is the design constraint: a tuning run must produce
// bit-identical forests, reports and fleets for a given seed no matter
// how many workers execute it. Two rules enforce that:
//
//  1. Work is split into fixed chunks whose boundaries depend only on the
//     problem size and the grain — never on the worker count or on
//     goroutine scheduling. Workers pull chunk indices from a shared
//     counter, so *which* worker runs a chunk varies, but *what* each
//     chunk computes does not.
//  2. Reductions never happen on worker goroutines. Each chunk writes its
//     result to its own slot, and the caller folds the slots on its own
//     goroutine in index order, so floating-point reduction order is
//     fixed.
//
// Callers that need randomness inside parallel work must pre-seed one RNG
// per task (sim.RNG.Fork in task order) before fanning out; an RNG stream
// must never be shared across chunks.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// workerOverride is the global worker-count override; 0 means "use
// runtime.GOMAXPROCS(0)".
var workerOverride atomic.Int32

// Workers returns the number of goroutines a fan-out may use: the value
// set by SetWorkers, or GOMAXPROCS when unset.
func Workers() int {
	if n := workerOverride.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// SetWorkers overrides the worker count (n <= 0 restores the GOMAXPROCS
// default) and returns the previous override (0 if none was set), so
// tests can restore it with defer SetWorkers(SetWorkers(1)).
func SetWorkers(n int) int {
	if n < 0 {
		n = 0
	}
	return int(workerOverride.Swap(int32(n)))
}

// spawnObserver, when set, is called with the goroutine count each time a
// fan-out actually spawns workers. It exists so tests can assert that
// small inputs never leave the serial path.
var spawnObserver atomic.Pointer[func(workers int)]

// SetSpawnObserver registers f to be invoked whenever For fans out (nil
// clears it). Test hook only; the callback must be safe for concurrent
// use across fan-outs.
func SetSpawnObserver(f func(workers int)) {
	if f == nil {
		spawnObserver.Store(nil)
		return
	}
	spawnObserver.Store(&f)
}

// Aggregate fan-out statistics. The serial path pays one atomic add per
// For call (chunks are coarse, so this is noise next to the chunk work);
// only the spawn path reads the wall clock, so timing never touches the
// single-worker fast path. The counters exist for the observability
// layer (internal/telemetry reads them at export time) and never feed
// back into scheduling, so they cannot perturb determinism.
var (
	statFanouts      atomic.Int64 // fan-outs that actually spawned workers
	statChunks       atomic.Int64 // chunks executed by spawned fan-outs
	statInlineChunks atomic.Int64 // chunks executed inline (serial path)
	statBusyNs       atomic.Int64 // summed per-worker busy time
	statSpanNs       atomic.Int64 // fan-out wall time × worker count
)

// StatsSnapshot is a point-in-time copy of the fan-out counters.
type StatsSnapshot struct {
	Fanouts      int64
	Chunks       int64
	InlineChunks int64
	BusyNs       int64
	SpanNs       int64
}

// Stats returns the current fan-out statistics.
func Stats() StatsSnapshot {
	return StatsSnapshot{
		Fanouts:      statFanouts.Load(),
		Chunks:       statChunks.Load(),
		InlineChunks: statInlineChunks.Load(),
		BusyNs:       statBusyNs.Load(),
		SpanNs:       statSpanNs.Load(),
	}
}

// BusySeconds is the summed time workers spent executing chunks.
func (s StatsSnapshot) BusySeconds() float64 { return float64(s.BusyNs) / 1e9 }

// IdleSeconds is the summed time workers spent inside fan-outs without a
// chunk to run (steal loop spinning down, waiting on the slowest chunk).
func (s StatsSnapshot) IdleSeconds() float64 {
	idle := float64(s.SpanNs-s.BusyNs) / 1e9
	if idle < 0 {
		return 0
	}
	return idle
}

// For runs fn over [0, n) split into contiguous chunks of at most grain
// items. fn is called once per chunk with a half-open index range; chunks
// never overlap, so fn may write to per-index state without locking. With
// one worker (or a single chunk) everything runs inline on the calling
// goroutine and no goroutine is spawned.
func For(n, grain int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	chunks := (n + grain - 1) / grain
	w := Workers()
	if w > chunks {
		w = chunks
	}
	if w <= 1 {
		statInlineChunks.Add(int64(chunks))
		for c := 0; c < chunks; c++ {
			lo := c * grain
			hi := lo + grain
			if hi > n {
				hi = n
			}
			fn(lo, hi)
		}
		return
	}
	if obs := spawnObserver.Load(); obs != nil {
		(*obs)(w)
	}
	statFanouts.Add(1)
	statChunks.Add(int64(chunks))
	fanoutStart := time.Now()
	var next atomic.Int64
	work := func() {
		busyStart := time.Now()
		for {
			c := int(next.Add(1)) - 1
			if c >= chunks {
				break
			}
			lo := c * grain
			hi := lo + grain
			if hi > n {
				hi = n
			}
			fn(lo, hi)
		}
		statBusyNs.Add(int64(time.Since(busyStart)))
	}
	var wg sync.WaitGroup
	wg.Add(w - 1)
	for i := 0; i < w-1; i++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work() // the calling goroutine is worker 0
	wg.Wait()
	statSpanNs.Add(int64(time.Since(fanoutStart)) * int64(w))
}
