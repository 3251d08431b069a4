package fleet

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"hash/fnv"
	"path/filepath"

	"github.com/hunter-cdb/hunter/internal/checkpoint"
	"github.com/hunter-cdb/hunter/internal/core"
)

// CheckpointFileName is the fleet snapshot file inside the checkpoint
// directory — one file, atomically replaced, always the latest barrier.
const CheckpointFileName = "fleet.ckpt"

// Fleet checkpoint section names. Every barrier writes all three.
const (
	sectionMeta    = "fleet-meta"
	sectionStore   = "fleet-store"
	sectionResults = "fleet-results"
)

// metaFormat numbers the layout of the meta section. A checkpoint whose
// meta section carries any other number is refused; one written before the
// number existed decodes as 0.
const metaFormat = 1

// fleetMeta is the checkpoint's bookkeeping section: a format number, the
// config fingerprint, and the run. A resume refuses to continue under a
// config that would produce a different fleet run.
type fleetMeta struct {
	Format     int
	Tenants    int
	TenantHash uint64
	Seed       int64
	Reuse      bool
	Policy     Policy // defaulted

	Run Progress
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

// CheckpointPath returns the fleet's snapshot path ("" when checkpointing
// is disabled).
func (f *Fleet) CheckpointPath() string {
	if f.cfg.CheckpointDir == "" {
		return ""
	}
	return filepath.Join(f.cfg.CheckpointDir, CheckpointFileName)
}

// writeCheckpoint atomically writes the fleet snapshot: the meta section,
// the model store, and every recorded tenant result in ID order.
func (f *Fleet) writeCheckpoint() error {
	w := checkpoint.NewWriter()
	meta := fleetMeta{
		Format:     metaFormat,
		Tenants:    len(f.cfg.Tenants),
		TenantHash: tenantHash(f.cfg.Tenants),
		Seed:       f.cfg.Seed,
		Reuse:      f.cfg.Reuse,
		Policy:     f.cfg.Policy,
		Run:        f.run,
	}
	if err := addGob(w, sectionMeta, meta); err != nil {
		return err
	}
	if err := w.Add(sectionStore, f.store); err != nil {
		return err
	}
	results := f.recorded()
	if err := addGob(w, sectionResults, results); err != nil {
		return err
	}
	if err := w.WriteFile(f.CheckpointPath()); err != nil {
		return err
	}
	f.logf("fleet checkpoint written",
		"path", f.CheckpointPath(), "round", f.run.Rounds, "results", len(results))
	return nil
}

// addGob gob-encodes v into a named section.
func addGob(w *checkpoint.Writer, name string, v any) error {
	var b bytes.Buffer
	if err := gob.NewEncoder(&b).Encode(v); err != nil {
		return fmt.Errorf("fleet: encoding %s: %w", name, err)
	}
	return w.AddBytes(name, b.Bytes())
}

// decodeGob decodes a named section into v.
func decodeGob(file *checkpoint.File, name string, v any) error {
	raw, err := file.Bytes(name)
	if err != nil {
		return fmt.Errorf("fleet: %w", err)
	}
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(v); err != nil {
		return fmt.Errorf("fleet: decoding %s: %w", name, err)
	}
	return nil
}

// readCheckpoint loads and integrity-checks a fleet snapshot and decodes
// its meta section, refusing any layout but the current one.
func readCheckpoint(path string) (*checkpoint.File, *fleetMeta, error) {
	file, err := checkpoint.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var meta fleetMeta
	if err := decodeGob(file, sectionMeta, &meta); err != nil {
		return nil, nil, err
	}
	if meta.Format != metaFormat {
		return nil, nil, fmt.Errorf("fleet: checkpoint meta format %d was written by an incompatible version (this build reads format %d)",
			meta.Format, metaFormat)
	}
	return file, &meta, nil
}

// CheckpointInfo is the resume bookkeeping a fleet snapshot carries,
// exposed for offline inspection (hunter-inspect).
type CheckpointInfo struct {
	Tenants int
	Seed    int64
	Reuse   bool
	Progress
	// Results counts the recorded tenant results; StoreModels counts the
	// models in the snapshotted shared store.
	Results     int
	StoreModels int
}

// PeekCheckpoint reads a fleet snapshot's bookkeeping without building a
// fleet. Returns an error when the file is not a fleet checkpoint.
func PeekCheckpoint(path string) (CheckpointInfo, error) {
	file, meta, err := readCheckpoint(path)
	if err != nil {
		return CheckpointInfo{}, err
	}
	info := CheckpointInfo{Tenants: meta.Tenants, Seed: meta.Seed, Reuse: meta.Reuse, Progress: meta.Run}
	var results []TenantResult
	if err := decodeGob(file, sectionResults, &results); err != nil {
		return info, err
	}
	info.Results = len(results)
	s := core.NewReuseRegistry()
	if err := file.Restore(sectionStore, s); err != nil {
		return info, err
	}
	info.StoreModels = s.Len()
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
	if cfg.CheckpointDir == "" {
		return nil, fmt.Errorf("fleet: Resume needs Config.CheckpointDir")
	}
	file, meta, err := readCheckpoint(f.CheckpointPath())
	if err != nil {
		return nil, err
	}
	if err := checkMeta(meta, f); err != nil {
		return nil, err
	}
	if err := checkProgress(meta, f); err != nil {
		return nil, err
	}
	var results []TenantResult
	if err := decodeGob(file, sectionResults, &results); err != nil {
		return nil, err
	}
	restored := make([]*TenantResult, len(f.cfg.Tenants))
	for i := range results {
		res := &results[i]
		switch {
		case res.ID < 0 || res.ID >= len(restored):
			return nil, fmt.Errorf("fleet: checkpoint result ID %d outside [0, %d)", res.ID, len(restored))
		case restored[res.ID] != nil:
			return nil, fmt.Errorf("fleet: checkpoint result ID %d is repeated", res.ID)
		}
		restored[res.ID] = res
	}
	if err := file.Restore(sectionStore, f.store); err != nil {
		return nil, err
	}
	f.results = restored
	f.run = meta.Run
	f.logf("fleet resumed",
		"checkpoint", f.CheckpointPath(), "round", f.run.Rounds, "next_tenant", f.run.Next)
	return f, nil
}

// checkProgress rejects bookkeeping no fleet run writes. A snapshot that
// passes its CRCs can still carry it, and the resumed Run would index or
// count with it.
func checkProgress(meta *fleetMeta, f *Fleet) error {
	bad := func(field string, v any) error {
		return fmt.Errorf("fleet: checkpoint %s = %v is out of range", field, v)
	}
	r := &meta.Run
	switch {
	case r.Next < 0 || r.Next > len(f.admitted):
		return bad("Next", r.Next)
	case r.Rounds < 0:
		return bad("Rounds", r.Rounds)
	case r.Done < 0:
		return bad("Done", r.Done)
	case r.Failed < 0:
		return bad("Failed", r.Failed)
	case f.cfg.Policy.TotalVirtualBudget > 0 && r.Pool > f.cfg.Policy.TotalVirtualBudget:
		return bad("Pool", r.Pool)
	}
	return nil
}

// checkMeta verifies the resume config matches the checkpointed fleet.
func checkMeta(meta *fleetMeta, f *Fleet) error {
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
	if f.cfg.Policy != meta.Policy {
		return mismatch("policy", f.cfg.Policy, meta.Policy)
	}
	return nil
}
