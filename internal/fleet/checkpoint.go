package fleet

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"hash/fnv"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/hunter-cdb/hunter/internal/checkpoint"
	"github.com/hunter-cdb/hunter/internal/core"
)

// CheckpointFileName is the fleet snapshot file inside the checkpoint
// directory — one file, atomically replaced, always the latest barrier.
const CheckpointFileName = "fleet.ckpt"

// Fleet checkpoint section names. Tenant sections are "tenant/%04d".
const (
	sectionMeta  = "fleet-meta"
	sectionStore = "fleet-store"
)

// tenantSection names tenant ID's container section.
func tenantSection(id int) string { return fmt.Sprintf("tenant/%04d", id) }

// ckptWriter is the fleet's incremental snapshot state: a long-lived
// container writer whose sections are replaced only when their content
// changed. Unchanged tenants keep their serialized bytes and cached CRCs
// across barriers, so a 1000-tenant fleet pays per-checkpoint encoding
// cost proportional to the round's finishers, not the fleet size.
type ckptWriter struct {
	dir        string
	w          *checkpoint.Writer
	dirty      map[int]bool
	storeDirty bool
	primed     bool // writer holds all prior sections (after first write or resume)
}

func newCkptWriter(dir string) *ckptWriter {
	return &ckptWriter{dir: dir, w: checkpoint.NewWriter(), dirty: make(map[int]bool), storeDirty: true}
}

// markDirty queues a tenant result for re-encoding at the next snapshot.
func (f *Fleet) markDirty(id int) {
	if f.ckpt != nil {
		f.ckpt.dirty[id] = true
	}
}

// markStoreDirty queues the shared model store for re-encoding.
func (f *Fleet) markStoreDirty() {
	if f.ckpt != nil {
		f.ckpt.storeDirty = true
	}
}

// fleetMeta is the checkpoint's bookkeeping section. The leading fields
// are the config fingerprint: a resume refuses to continue under a config
// that would produce a different fleet run.
type fleetMeta struct {
	Tenants            int
	TenantHash         uint64
	Seed               int64
	Reuse              bool
	MaxActive          int
	QueueDepth         int
	MaxTenantBudget    time.Duration
	TotalVirtualBudget time.Duration

	Rounds      int
	Next        int
	Pool        time.Duration
	ReuseProbes int
	ReuseHits   int
	ReuseStores int
	Done        int
	Failed      int
}

// tenantHash fingerprints the tenant declaration list: any change to a
// spec would re-run different sessions, so a resume must reject it.
func tenantHash(specs []TenantSpec) uint64 {
	h := fnv.New64a()
	for _, t := range specs {
		fmt.Fprintf(h, "%d|%s|%s|%s|%d|%d|%g|%d\n",
			t.ID, t.Name, t.Dialect, t.Profile, t.Seed, t.Budget, t.Target, t.Clones)
	}
	return h.Sum64()
}

func (f *Fleet) meta() fleetMeta {
	return fleetMeta{
		Tenants:            len(f.cfg.Tenants),
		TenantHash:         tenantHash(f.cfg.Tenants),
		Seed:               f.cfg.Seed,
		Reuse:              f.cfg.Reuse,
		MaxActive:          f.cfg.Policy.MaxActive,
		QueueDepth:         f.cfg.Policy.QueueDepth,
		MaxTenantBudget:    f.cfg.Policy.MaxTenantBudget,
		TotalVirtualBudget: f.cfg.Policy.TotalVirtualBudget,
		Rounds:             f.rounds,
		Next:               f.next,
		Pool:               f.pool,
		ReuseProbes:        f.reuseProbes,
		ReuseHits:          f.reuseHits,
		ReuseStores:        f.reuseStores,
		Done:               f.prevDone,
		Failed:             f.prevFailed,
	}
}

// CheckpointPath returns the fleet's snapshot path ("" when checkpointing
// is disabled).
func (f *Fleet) CheckpointPath() string {
	if f.cfg.CheckpointDir == "" {
		return ""
	}
	return filepath.Join(f.cfg.CheckpointDir, CheckpointFileName)
}

// writeCheckpoint atomically writes the fleet snapshot: meta always, the
// model store when it changed, and only the tenants that finished (or were
// evicted or rejected) since the last snapshot.
func (f *Fleet) writeCheckpoint() error {
	cw := f.ckpt
	if !cw.primed {
		// First snapshot: everything already recorded is dirty (includes
		// tenants rejected at admission).
		for id := range f.results {
			cw.dirty[id] = true
		}
		cw.storeDirty = true
		cw.primed = true
	}
	var mb bytes.Buffer
	if err := gob.NewEncoder(&mb).Encode(f.meta()); err != nil {
		return fmt.Errorf("fleet: encoding checkpoint meta: %w", err)
	}
	if err := cw.w.AddBytes(sectionMeta, mb.Bytes()); err != nil {
		return err
	}
	if cw.storeDirty {
		if err := cw.w.Add(sectionStore, f.store); err != nil {
			return err
		}
	}
	ids := make([]int, 0, len(cw.dirty))
	for id := range cw.dirty {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		res, ok := f.results[id]
		if !ok {
			continue
		}
		var tb bytes.Buffer
		if err := gob.NewEncoder(&tb).Encode(res); err != nil {
			return fmt.Errorf("fleet: encoding tenant %d: %w", id, err)
		}
		if err := cw.w.AddBytes(tenantSection(id), tb.Bytes()); err != nil {
			return err
		}
	}
	if err := cw.w.WriteFile(f.CheckpointPath()); err != nil {
		return err
	}
	cw.dirty = make(map[int]bool)
	cw.storeDirty = false
	f.logf("fleet checkpoint written",
		"path", f.CheckpointPath(), "round", f.rounds, "tenants_written", len(ids))
	return nil
}

// CheckpointInfo is the resume bookkeeping a fleet snapshot carries,
// exposed for offline inspection (hunter-inspect).
type CheckpointInfo struct {
	Tenants     int
	Seed        int64
	Reuse       bool
	Rounds      int
	Next        int
	Pool        time.Duration
	Done        int
	Failed      int
	ReuseProbes int
	ReuseHits   int
	ReuseStores int
	// TenantSections counts the per-tenant container sections present;
	// StoreModels counts the models in the snapshotted shared store.
	TenantSections int
	StoreModels    int
}

// PeekCheckpoint reads a fleet snapshot's bookkeeping without building a
// fleet. Returns an error when the file is not a fleet checkpoint.
func PeekCheckpoint(path string) (CheckpointInfo, error) {
	var info CheckpointInfo
	file, err := checkpoint.ReadFile(path)
	if err != nil {
		return info, err
	}
	raw, err := file.Bytes(sectionMeta)
	if err != nil {
		return info, fmt.Errorf("fleet: not a fleet checkpoint: %w", err)
	}
	var meta fleetMeta
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&meta); err != nil {
		return info, fmt.Errorf("fleet: decoding checkpoint meta: %w", err)
	}
	info = CheckpointInfo{
		Tenants:     meta.Tenants,
		Seed:        meta.Seed,
		Reuse:       meta.Reuse,
		Rounds:      meta.Rounds,
		Next:        meta.Next,
		Pool:        meta.Pool,
		Done:        meta.Done,
		Failed:      meta.Failed,
		ReuseProbes: meta.ReuseProbes,
		ReuseHits:   meta.ReuseHits,
		ReuseStores: meta.ReuseStores,
	}
	for _, name := range file.Names() {
		if strings.HasPrefix(name, "tenant/") {
			info.TenantSections++
		}
	}
	if file.Has(sectionStore) {
		s := core.NewReuseRegistry()
		if err := file.Restore(sectionStore, s); err != nil {
			return info, err
		}
		info.StoreModels = s.Len()
	}
	return info, nil
}

// Resume rebuilds a fleet from its checkpoint and the original config. The
// config must describe the same fleet the snapshot came from (same tenant
// list, seed, reuse setting and policy); observability wiring may differ.
// The resumed fleet continues from the snapshotted round barrier and —
// because every cross-tenant effect is committed at barriers — reproduces
// the uninterrupted run's report byte for byte.
func Resume(cfg Config) (*Fleet, error) {
	f, err := New(cfg)
	if err != nil {
		return nil, err
	}
	if f.ckpt == nil {
		return nil, fmt.Errorf("fleet: Resume needs Config.CheckpointDir")
	}
	file, err := checkpoint.ReadFile(f.CheckpointPath())
	if err != nil {
		return nil, err
	}
	raw, err := file.Bytes(sectionMeta)
	if err != nil {
		return nil, fmt.Errorf("fleet: checkpoint has no fleet meta: %w", err)
	}
	var meta fleetMeta
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&meta); err != nil {
		return nil, fmt.Errorf("fleet: decoding checkpoint meta: %w", err)
	}
	if err := checkMeta(meta, f); err != nil {
		return nil, err
	}
	if err := checkProgress(meta, f); err != nil {
		return nil, err
	}
	if file.Has(sectionStore) {
		if err := file.Restore(sectionStore, f.store); err != nil {
			return nil, err
		}
	}
	for _, name := range file.Names() {
		if !strings.HasPrefix(name, "tenant/") {
			continue
		}
		id, err := strconv.Atoi(strings.TrimPrefix(name, "tenant/"))
		if err != nil {
			return nil, fmt.Errorf("fleet: bad tenant section %q", name)
		}
		if id < 0 || id >= len(f.cfg.Tenants) {
			return nil, fmt.Errorf("fleet: checkpoint tenant section %q: ID %d outside [0, %d)", name, id, len(f.cfg.Tenants))
		}
		raw, err := file.Bytes(name)
		if err != nil {
			return nil, err
		}
		var res TenantResult
		if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&res); err != nil {
			return nil, fmt.Errorf("fleet: decoding %s: %w", name, err)
		}
		if id != res.ID {
			return nil, fmt.Errorf("fleet: section %q holds tenant %d", name, res.ID)
		}
		f.results[id] = &res
	}
	// Seed the incremental writer with every restored section so the next
	// snapshot re-encodes only what changes from here on.
	for _, name := range file.Names() {
		raw, _ := file.Bytes(name)
		if err := f.ckpt.w.AddBytes(name, raw); err != nil {
			return nil, err
		}
	}
	f.ckpt.dirty = make(map[int]bool)
	f.ckpt.storeDirty = false
	f.ckpt.primed = true
	f.rounds = meta.Rounds
	f.next = meta.Next
	f.pool = meta.Pool
	f.reuseProbes = meta.ReuseProbes
	f.reuseHits = meta.ReuseHits
	f.reuseStores = meta.ReuseStores
	f.prevDone = meta.Done
	f.prevFailed = meta.Failed
	f.logf("fleet resumed",
		"checkpoint", f.CheckpointPath(), "round", f.rounds, "next_tenant", f.next)
	return f, nil
}

// checkProgress rejects bookkeeping no fleet run writes. A snapshot that
// passes its CRCs can still carry it, and the resumed Run would index or
// count with it.
func checkProgress(meta fleetMeta, f *Fleet) error {
	bad := func(field string, v any) error {
		return fmt.Errorf("fleet: checkpoint %s = %v is out of range", field, v)
	}
	switch {
	case meta.Next < 0 || meta.Next > len(f.admitted):
		return bad("Next", meta.Next)
	case meta.Rounds < 0:
		return bad("Rounds", meta.Rounds)
	case meta.Done < 0:
		return bad("Done", meta.Done)
	case meta.Failed < 0:
		return bad("Failed", meta.Failed)
	case f.cfg.Policy.TotalVirtualBudget > 0 && meta.Pool > f.cfg.Policy.TotalVirtualBudget:
		return bad("Pool", meta.Pool)
	}
	return nil
}

// checkMeta verifies the resume config matches the checkpointed fleet.
func checkMeta(meta fleetMeta, f *Fleet) error {
	mismatch := func(field string, got, want any) error {
		return fmt.Errorf("fleet: checkpoint fingerprint mismatch: config %s = %v, checkpoint has %v",
			field, got, want)
	}
	if n := len(f.cfg.Tenants); n != meta.Tenants {
		return mismatch("tenant count", n, meta.Tenants)
	}
	if h := tenantHash(f.cfg.Tenants); h != meta.TenantHash {
		return mismatch("tenant list hash", h, meta.TenantHash)
	}
	if f.cfg.Seed != meta.Seed {
		return mismatch("seed", f.cfg.Seed, meta.Seed)
	}
	if f.cfg.Reuse != meta.Reuse {
		return mismatch("reuse", f.cfg.Reuse, meta.Reuse)
	}
	p := f.cfg.Policy
	if p.MaxActive != meta.MaxActive {
		return mismatch("max active", p.MaxActive, meta.MaxActive)
	}
	if p.QueueDepth != meta.QueueDepth {
		return mismatch("queue depth", p.QueueDepth, meta.QueueDepth)
	}
	if p.MaxTenantBudget != meta.MaxTenantBudget {
		return mismatch("max tenant budget", p.MaxTenantBudget, meta.MaxTenantBudget)
	}
	if p.TotalVirtualBudget != meta.TotalVirtualBudget {
		return mismatch("total virtual budget", p.TotalVirtualBudget, meta.TotalVirtualBudget)
	}
	return nil
}
