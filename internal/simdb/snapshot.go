package simdb

import (
	"encoding/gob"
	"fmt"
	"io"

	"github.com/hunter-cdb/hunter/internal/knob"
	"github.com/hunter-cdb/hunter/internal/sim"
)

// bpNodeState is one serialized buffer-pool frame.
type bpNodeState struct {
	Page                uint32
	Prev, Next          int32
	Dirty, Young, Touch bool
}

// poolState captures the buffer pool exactly: every frame, the young/old
// list linkage, the free list and all counters. Exact restoration matters
// because the LRU's future hit/eviction sequence — and through it the
// engine's RNG consumption — depends on the precise list order.
type poolState struct {
	Capacity         int
	Nodes            []bpNodeState
	Free             []int32
	Head, Tail, Mid  int32
	YoungLen, OldLen int
	Resident         int
	OldPct           float64
	Promote2nd       bool
	Hits, Misses     int64
	DirtyPages       int
	Evictions        int64
	DirtyEvictions   int64
	YoungPromotes    int64
	ScanInsertions   int64
}

// poolKeyState mirrors poolShapeKey with exported fields.
type poolKeyState struct {
	Profile      string
	SimPoolPages int
	SimDataPages int64
	OldBlocksPct float64
	Promote2nd   bool
}

// engineState is the engine's durable state. The access-plan cache, lock
// scratch and latency buffers are deliberately absent: they are rebuilt
// deterministically without consuming the RNG stream.
type engineState struct {
	Cfg         knob.Config
	Booted      bool
	RNG         sim.RNGState
	LastWarmupS float64
	NoiseStdDev float64
	PoolKey     poolKeyState
	Pool        *poolState
}

// SnapshotTo serializes the engine (checkpoint.Snapshotter): active
// configuration, RNG stream, warm-up state, and the full buffer pool. A
// restored engine's subsequent Run results are bit-identical to the
// original's.
func (e *Engine) SnapshotTo(w io.Writer) error {
	st := engineState{
		Cfg:         e.cfg,
		Booted:      e.booted,
		RNG:         e.rng.State(),
		LastWarmupS: e.lastWarmupS,
		NoiseStdDev: e.NoiseStdDev,
		PoolKey: poolKeyState{
			Profile:      e.poolDataKey.profile,
			SimPoolPages: e.poolDataKey.simPoolPages,
			SimDataPages: e.poolDataKey.simDataPages,
			OldBlocksPct: e.poolDataKey.oldBlocksPct,
			Promote2nd:   e.poolDataKey.promote2nd,
		},
	}
	if b := e.pool; b != nil {
		ps := &poolState{
			Capacity: b.capacity, Free: b.free,
			Head: b.head, Tail: b.tail, Mid: b.midpoint,
			YoungLen: b.youngLen, OldLen: b.oldLen, Resident: b.resident,
			OldPct: b.oldPct, Promote2nd: b.promote2nd,
			Hits: b.hits, Misses: b.misses, DirtyPages: b.dirtyPages,
			Evictions: b.evictions, DirtyEvictions: b.dirtyEvictions,
			YoungPromotes: b.youngPromotes, ScanInsertions: b.scanInsertions,
		}
		ps.Nodes = make([]bpNodeState, len(b.nodes))
		for i, n := range b.nodes {
			ps.Nodes[i] = bpNodeState{Page: n.page, Prev: n.prev, Next: n.next, Dirty: n.dirty, Young: n.young, Touch: n.touched}
		}
		st.Pool = ps
	}
	return gob.NewEncoder(w).Encode(st)
}

// RestoreFrom reinstates an engine written by SnapshotTo
// (checkpoint.Restorer). The engine keeps its dialect, hardware and
// telemetry attachment; everything mutable is replaced. On error the
// engine is unchanged.
func (e *Engine) RestoreFrom(r io.Reader) error {
	var st engineState
	if err := gob.NewDecoder(r).Decode(&st); err != nil {
		return err
	}
	var pool *bufferPool
	if ps := st.Pool; ps != nil {
		var err error
		if pool, err = restorePool(ps); err != nil {
			return err
		}
	}
	rng := sim.NewRNG(0)
	if err := rng.SetState(st.RNG); err != nil {
		return err
	}
	var cfg, params = e.cfg, e.params
	if st.Booted {
		p := ParamsFrom(e.dialect, st.Cfg)
		if err := p.ValidateBoot(e.res, 512); err != nil {
			return fmt.Errorf("simdb: snapshot configuration does not boot: %w", err)
		}
		cfg, params = st.Cfg, p
	}
	e.cfg = cfg
	e.params = params
	e.booted = st.Booted
	e.rng = rng
	e.lastWarmupS = st.LastWarmupS
	e.NoiseStdDev = st.NoiseStdDev
	e.pool = pool
	e.poolDataKey = poolShapeKey{
		profile:      st.PoolKey.Profile,
		simPoolPages: st.PoolKey.SimPoolPages,
		simDataPages: st.PoolKey.SimDataPages,
		oldBlocksPct: st.PoolKey.OldBlocksPct,
		promote2nd:   st.PoolKey.Promote2nd,
	}
	e.plan = accessPlan{} // rebuilt on next Run; no RNG involved
	return nil
}

// restorePool rebuilds a buffer pool from its serialized frames, deriving
// the page index from the list linkage and validating the invariants the
// hot loop depends on.
func restorePool(ps *poolState) (*bufferPool, error) {
	// An online shrink (resize) can leave more allocated frames than the
	// current capacity, with the surplus parked on the free list — so the
	// frame count is bounded by resident + free, not by capacity.
	if ps.Capacity < 1 || ps.Resident > ps.Capacity || len(ps.Nodes) != ps.Resident+len(ps.Free) {
		return nil, fmt.Errorf("simdb: snapshot pool has %d frames, %d resident + %d free, capacity %d",
			len(ps.Nodes), ps.Resident, len(ps.Free), ps.Capacity)
	}
	n := int32(len(ps.Nodes))
	inRange := func(i int32) bool { return i >= -1 && i < n }
	if !inRange(ps.Head) || !inRange(ps.Tail) || !inRange(ps.Mid) {
		return nil, fmt.Errorf("simdb: snapshot pool list heads out of range")
	}
	b := &bufferPool{
		capacity: ps.Capacity,
		nodes:    make([]bpNode, len(ps.Nodes)),
		resident: ps.Resident,
		free:     append([]int32(nil), ps.Free...),
		head:     ps.Head, tail: ps.Tail, midpoint: ps.Mid,
		youngLen: ps.YoungLen, oldLen: ps.OldLen,
		oldPct: ps.OldPct, promote2nd: ps.Promote2nd,
		hits: ps.Hits, misses: ps.Misses,
		dirtyPages: ps.DirtyPages,
		evictions:  ps.Evictions, dirtyEvictions: ps.DirtyEvictions,
		youngPromotes: ps.YoungPromotes, scanInsertions: ps.ScanInsertions,
	}
	for i, s := range ps.Nodes {
		if !inRange(s.Prev) || !inRange(s.Next) {
			return nil, fmt.Errorf("simdb: snapshot pool frame %d links out of range", i)
		}
		b.nodes[i] = bpNode{page: s.Page, prev: s.Prev, next: s.Next, dirty: s.Dirty, young: s.Young, touched: s.Touch}
	}
	for _, fi := range b.free {
		if fi < 0 || fi >= n {
			return nil, fmt.Errorf("simdb: snapshot pool free-list entry %d out of range", fi)
		}
	}
	// Rebuild the page→frame index by walking the list; exactly the
	// resident frames are linked.
	count := 0
	for i := b.head; i >= 0; i = b.nodes[i].next {
		b.setSlot(b.nodes[i].page, i)
		count++
		if count > len(b.nodes) {
			return nil, errListCorrupt
		}
	}
	if count != b.resident {
		return nil, errListCorrupt
	}
	if err := b.checkList(); err != nil {
		return nil, err
	}
	return b, nil
}
