package core

import (
	"encoding/gob"
	"fmt"
	"io"
	"sync"

	"github.com/hunter-cdb/hunter/internal/checkpoint"
	"github.com/hunter-cdb/hunter/internal/ml/ddpg"
)

// Model is one trained Recommender held by a ReuseRegistry: the DDPG
// snapshot plus everything a prospective borrower needs to judge
// compatibility (knob set, state dimension) and quality (the donor's final
// fitness).
type Model struct {
	Signature string // workload signature: a workload name, or "mysql/tpcc" in a fleet
	Tag       string // donor name: the signature, or a fleet tenant
	KnobNames []string
	StateDim  int
	Fitness   float64
	Snap      ddpg.Snapshot
}

// clone deep-copies a model so callers and the registry never share knob
// or weight slices.
func (m Model) clone() Model {
	m.KnobNames = append([]string(nil), m.KnobNames...)
	s := &m.Snap
	s.Actor = append([]float64(nil), s.Actor...)
	s.Critic = append([]float64(nil), s.Critic...)
	s.ActorT = append([]float64(nil), s.ActorT...)
	s.CriticT = append([]float64(nil), s.CriticT...)
	return m
}

// ReuseRegistry implements the matching module of the online model-reuse
// scheme (§4): after the Search Space Optimizer runs, the registry is
// probed for a historical workload with the same key knobs and the same
// compressed-state dimension; on a hit the stored Recommender parameters
// are loaded and fine-tuned. It holds one Model per signature and is the
// only model store: single sessions and the multi-tenant fleet share it.
//
// The paper requires the key knobs and state dimension to be "the same";
// since RF rankings carry sampling noise, a model is compatible when the
// state dimensions are equal, its action dimension equals the probe's
// knob count, and the key-knob sets overlap almost entirely (Jaccard ≥
// minJaccard). Restoring a snapshot additionally requires identical
// network shapes, which equal dimensions guarantee. The phase machine only
// reads the registry; whoever runs the session commits the trained model
// (Hunter.Model). The registry is safe for concurrent use.
type ReuseRegistry struct {
	mu      sync.RWMutex
	entries map[string]Model
}

// minJaccard is the key-knob set overlap required for a match.
const minJaccard = 0.75

// NewReuseRegistry returns an empty registry.
func NewReuseRegistry() *ReuseRegistry {
	return &ReuseRegistry{entries: make(map[string]Model)}
}

// Match returns a model to warm-start a probe with the given signature,
// key knobs and state dimension: the model stored under the exact
// signature if it is compatible, otherwise the compatible model with the
// highest key-knob overlap, ties broken by highest fitness, then by lowest
// signature. The result is a deep copy.
func (r *ReuseRegistry) Match(signature string, knobNames []string, stateDim int) (Model, bool) {
	probe := make(map[string]bool, len(knobNames))
	for _, n := range knobNames {
		probe[n] = true
	}
	// overlap is m's Jaccard key-knob overlap with the probe, or -1 when m
	// cannot warm-start it.
	overlap := func(m *Model) float64 {
		if m.StateDim != stateDim || m.Snap.ActionDim != len(knobNames) {
			return -1
		}
		inter := 0
		for _, n := range m.KnobNames {
			if probe[n] {
				inter++
			}
		}
		union := len(probe) + len(m.KnobNames) - inter
		if union == 0 {
			return -1
		}
		if j := float64(inter) / float64(union); j >= minJaccard {
			return j
		}
		return -1
	}

	r.mu.RLock()
	defer r.mu.RUnlock()
	if m, ok := r.entries[signature]; ok && overlap(&m) >= 0 {
		return m.clone(), true
	}
	// The ranking is a total order, so map iteration order never picks
	// the winner.
	var best *Model
	bestJ := -1.0
	for _, m := range r.entries {
		j := overlap(&m)
		if j < 0 {
			continue
		}
		if best == nil || j > bestJ ||
			j == bestJ && (m.Fitness > best.Fitness || m.Fitness == best.Fitness && m.Signature < best.Signature) {
			best, bestJ = &m, j
		}
	}
	if best == nil {
		return Model{}, false
	}
	return best.clone(), true
}

// Commit records a trained model under its signature. An existing model is
// replaced only by a strictly better fitness, so commit order among equals
// does not matter. The model is deep-copied on the way in, so the caller
// may keep training the live network afterwards. It reports whether the
// model was accepted.
func (r *ReuseRegistry) Commit(m Model) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if old, ok := r.entries[m.Signature]; ok && old.Fitness >= m.Fitness {
		return false
	}
	r.entries[m.Signature] = m.clone()
	return true
}

// Len returns the number of stored models.
func (r *ReuseRegistry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.entries)
}

// registryDump is the registry's gob shape. It matches the fleet
// checkpoint's "fleet-store" section as older fleets wrote it, so their
// snapshots still resume.
type registryDump struct {
	Entries map[string]Model
}

// SnapshotTo serializes the registry (checkpoint.Snapshotter).
func (r *ReuseRegistry) SnapshotTo(w io.Writer) error {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if err := gob.NewEncoder(w).Encode(registryDump{Entries: r.entries}); err != nil {
		return fmt.Errorf("core: encoding reuse registry: %w", err)
	}
	return nil
}

// RestoreFrom adds the models serialized by SnapshotTo to the registry,
// replacing any held under the same signature (checkpoint.Restorer). A
// decode failure leaves the registry untouched.
func (r *ReuseRegistry) RestoreFrom(rd io.Reader) error {
	var dump registryDump
	if err := gob.NewDecoder(rd).Decode(&dump); err != nil {
		return fmt.Errorf("core: decoding reuse registry: %w", err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for sig, m := range dump.Entries {
		r.entries[sig] = m
	}
	return nil
}

// registrySection is the registry's section name inside the versioned
// checkpoint container.
const registrySection = "reuse-registry"

// Save serializes the registry so trained models survive process restarts
// — the historical-data reuse of §5. The SnapshotTo payload is wrapped in
// the repository's versioned checkpoint container, so a load rejects
// truncated, corrupted or wrong-version files up front instead of
// mis-decoding them.
func (r *ReuseRegistry) Save(w io.Writer) error {
	cw := checkpoint.NewWriter()
	if err := cw.Add(registrySection, r); err != nil {
		return err
	}
	_, err := w.Write(cw.Encode())
	return err
}

// Load restores a registry serialized by Save, merging into the current
// contents. Bad magic, an unsupported format version, a checksum mismatch
// or a truncated file all fail with a descriptive error and leave the
// registry untouched.
func (r *ReuseRegistry) Load(rd io.Reader) error {
	data, err := io.ReadAll(rd)
	if err != nil {
		return fmt.Errorf("core: reading reuse registry: %w", err)
	}
	f, err := checkpoint.Decode(data)
	if err != nil {
		return fmt.Errorf("core: loading reuse registry: %w", err)
	}
	return f.Restore(registrySection, r)
}
