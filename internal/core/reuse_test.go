package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/hunter-cdb/hunter/internal/metrics"
	"github.com/hunter-cdb/hunter/internal/ml/ddpg"
	"github.com/hunter-cdb/hunter/internal/telemetry"
	"github.com/hunter-cdb/hunter/internal/tuner"
	"github.com/hunter-cdb/hunter/internal/workload"
)

func testSnapshot(stateDim, actionDim int, fill float64) ddpg.Snapshot {
	w := []float64{fill, fill, fill}
	return ddpg.Snapshot{
		StateDim:  stateDim,
		ActionDim: actionDim,
		Actor:     append([]float64(nil), w...),
		Critic:    append([]float64(nil), w...),
		ActorT:    append([]float64(nil), w...),
		CriticT:   append([]float64(nil), w...),
	}
}

func testModel(sig, tag string, fitness float64, knobs []string, dim int) Model {
	return Model{
		Signature: sig, Tag: tag, KnobNames: knobs, StateDim: dim,
		Fitness: fitness, Snap: testSnapshot(dim, len(knobs), fitness),
	}
}

// TestUnrestorableDonorTraced: a matched donor that does not restore (its
// weights do not fit the Recommender's networks) leaves the run cold,
// and the trace records the refusal.
func TestUnrestorableDonorTraced(t *testing.T) {
	rec := telemetry.New()
	s, err := tuner.NewSession(tuner.Request{Workload: workload.TPCC(), Budget: 3 * time.Hour, Seed: 4, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	reg := NewReuseRegistry()
	reg.Commit(testModel(s.Req.Workload.Name, "corrupt", 1, s.Space.Names(), metrics.Count))
	h := New(Options{DisablePCA: true, DisableRF: true, SampleTarget: 10, Registry: reg})
	if err := h.Tune(s); err != nil {
		t.Fatal(err)
	}
	if h.Reused() {
		t.Fatal("run reports reuse of a donor that cannot restore")
	}
	events, _ := rec.EventsSince(0)
	for _, ev := range events {
		if ev.Name == "reuse_restore_failed" {
			return
		}
	}
	t.Fatal("no reuse_restore_failed event in the trace")
}

// TestReuseRegistryMatching pins the one match policy (exact signature
// first, then the compatible model with the highest overlap, fitness and
// lowest signature breaking ties) and the commit rule (strictly better
// fitness replaces).
func TestReuseRegistryMatching(t *testing.T) {
	abc := []string{"a", "b", "c"}
	k8 := []string{"k1", "k2", "k3", "k4", "k5", "k6", "k7", "k8"}
	k7x := []string{"k1", "k2", "k3", "k4", "k5", "k6", "k7", "x"} // Jaccard 7/9 with k8
	type commit struct {
		m  Model
		ok bool // whether Commit accepts it
	}
	type probe struct {
		sig   string
		knobs []string
		dim   int
		want  string // donor tag; "" for no match
	}
	cases := []struct {
		name    string
		commits []commit
		probes  []probe
	}{
		{"empty registry", nil, []probe{{"w", abc, 5, ""}}},
		{"knob order is irrelevant, shape is not",
			[]commit{{testModel("wl-1", "wl-1", 0, []string{"b", "a"}, 13), true}},
			[]probe{
				{"other", []string{"a", "b"}, 13, "wl-1"},
				{"other", []string{"a", "b"}, 14, ""},
				{"other", []string{"a", "c"}, 13, ""},
			}},
		{"exact signature over fitness with strict commits",
			[]commit{
				{testModel("mysql/tpcc", "t1", 0.4, abc, 5), true},
				{testModel("mysql/oltp_read_write", "t2", 0.9, abc, 5), true},
				{testModel("mysql/tpcc", "t3", 0.3, abc, 5), false},
				{testModel("mysql/tpcc", "t4", 0.5, abc, 5), true},
				{testModel("mysql/tpcc", "t5", 0.5, abc, 5), false},
			},
			[]probe{
				{"mysql/tpcc", abc, 5, "t4"},
				{"mysql/oltp_read_only", abc, 5, "t2"},
				{"mysql/tpcc", abc, 6, ""},
				{"mysql/tpcc", []string{"a", "b", "x"}, 5, ""},
			}},
		{"incompatible exact signature falls back",
			[]commit{
				{testModel("w", "t1", 0.9, abc, 6), true},
				{testModel("v", "t2", 0.1, abc, 5), true},
			},
			[]probe{{"w", abc, 5, "t2"}}},
		{"action dim must equal the knob count",
			[]commit{{Model{Signature: "w", Tag: "t1", KnobNames: abc, StateDim: 5, Snap: testSnapshot(5, 2, 0)}, true}},
			[]probe{{"w", abc, 5, ""}}},
		{"partial overlap matches above the threshold",
			[]commit{{testModel("a", "t1", 0.9, k7x, 4), true}},
			[]probe{{"b", k8, 4, "t1"}, {"b", k8[:6], 4, ""}}},
		{"overlap beats fitness",
			[]commit{
				{testModel("a", "t1", 0.9, k7x, 4), true},
				{testModel("b", "t2", 0.1, k8, 4), true},
			},
			[]probe{{"c", k8, 4, "t2"}}},
		{"fitness, then signature, break overlap ties",
			[]commit{
				{testModel("b", "t1", 0.5, abc, 5), true},
				{testModel("c", "t2", 0.7, abc, 5), true},
				{testModel("d", "t3", 0.7, abc, 5), true},
			},
			[]probe{{"x", abc, 5, "t2"}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewReuseRegistry()
			sigs := map[string]bool{}
			for _, c := range tc.commits {
				if got := r.Commit(c.m); got != c.ok {
					t.Fatalf("Commit(%s %s fitness %v) = %v, want %v", c.m.Signature, c.m.Tag, c.m.Fitness, got, c.ok)
				}
				sigs[c.m.Signature] = true
			}
			if r.Len() != len(sigs) {
				t.Fatalf("Len = %d, want one model per signature (%d)", r.Len(), len(sigs))
			}
			for _, p := range tc.probes {
				got := ""
				if m, ok := r.Match(p.sig, p.knobs, p.dim); ok {
					got = m.Tag
				}
				if got != p.want {
					t.Errorf("Match(%q, %v, %d) = %q, want %q", p.sig, p.knobs, p.dim, got, p.want)
				}
			}
		})
	}
}

// TestReuseRegistryStoreCopies pins the defensive-copy contract: neither
// the committing caller nor a matching caller shares slices with the
// registry.
func TestReuseRegistryStoreCopies(t *testing.T) {
	r := NewReuseRegistry()
	knobs := []string{"a", "b"}
	m := testModel("w", "w", 1, knobs, 3)
	r.Commit(m)
	m.Snap.Actor[0] = 999
	knobs[0] = "z"

	got, ok := r.Match("w", []string{"a", "b"}, 3)
	if !ok {
		t.Fatal("the committed model no longer matches: the registry aliased the caller's knob slice")
	}
	if got.Snap.Actor[0] != 1 {
		t.Fatalf("registry aliased the caller's weights: Actor[0] = %v, want 1", got.Snap.Actor[0])
	}
	got.Snap.Actor[0] = 555
	got.KnobNames[0] = "y"
	if again, _ := r.Match("w", []string{"a", "b"}, 3); again.Snap.Actor[0] != 1 || again.KnobNames[0] != "a" {
		t.Fatalf("Match result aliased registry state: %+v", again)
	}
}

// TestReuseRegistryConcurrent hammers Commit, Match, Len and SnapshotTo
// from 16 goroutines. It is meaningful under -race (the CI race list runs
// it): any unguarded map access or shared weight slice shows up as a data
// race; without -race it still checks that concurrent matches only ever
// observe fully formed, private models. With one shape every Match copies
// a model out; with mixed shapes Match also filters and ranks donors.
func TestReuseRegistryConcurrent(t *testing.T) {
	for _, tc := range []struct {
		name  string
		knobs func(g int) []string
		dim   func(g int) int
	}{
		{"one shape", func(int) []string { return []string{"a", "b", "c"} }, func(int) int { return 4 }},
		{"mixed shapes", func(g int) []string {
			return []string{fmt.Sprintf("knob_a_%d", g%4), fmt.Sprintf("knob_b_%d", g%4), "shared_knob"}
		}, func(g int) int { return 1 + g%4 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := NewReuseRegistry()
			var wg sync.WaitGroup
			for g := 0; g < 16; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					knobs, dim := tc.knobs(g), tc.dim(g)
					sig := fmt.Sprintf("mysql/w%d", g%5)
					for i := 0; i < 200; i++ {
						switch i % 4 {
						case 0:
							r.Commit(testModel(sig, fmt.Sprintf("t%d", g), float64(i), knobs, dim))
						case 1:
							if m, ok := r.Match(sig, knobs, dim); ok {
								if m.Snap.ActionDim != len(knobs) {
									t.Errorf("goroutine %d: Match returned ActionDim %d, want %d", g, m.Snap.ActionDim, len(knobs))
									return
								}
								for j := range m.Snap.Actor {
									m.Snap.Actor[j] = -1 // a private copy: must not race
								}
							}
						case 2:
							if m, ok := r.Match(sig, knobs, dim); ok && m.Snap.Actor[0] == -1 {
								t.Errorf("goroutine %d: Match observed another reader's mutation", g)
								return
							}
						case 3:
							r.Len()
							if err := r.SnapshotTo(&bytes.Buffer{}); err != nil {
								t.Error(err)
								return
							}
						}
					}
				}(g)
			}
			wg.Wait()
			if r.Len() == 0 {
				t.Fatal("registry empty after concurrent commits")
			}
		})
	}
}

// TestRegistrySaveLoad round-trips a registry through the checkpoint
// container.
func TestRegistrySaveLoad(t *testing.T) {
	r := NewReuseRegistry()
	knobs := []string{"a", "b", "c"}
	for i := 0; i < 10; i++ {
		r.Commit(testModel(fmt.Sprintf("mysql/w%d", i), fmt.Sprintf("t%d", i), float64(i), knobs, 13))
	}
	var buf bytes.Buffer
	if err := r.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored := NewReuseRegistry()
	if err := restored.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if restored.Len() != 10 {
		t.Fatalf("restored %d models, want 10", restored.Len())
	}
	got, ok := restored.Match("mysql/w9", knobs, 13)
	if !ok || got.Tag != "t9" || got.Fitness != 9 || len(got.Snap.Actor) != 3 || got.Snap.Actor[1] != 9 {
		t.Fatalf("restored model corrupted: %+v, %v", got, ok)
	}
}

// TestReuseRegistrySnapshotRoundTrip covers the raw encoding the fleet
// checkpoints as its "fleet-store" section: every model survives a round
// trip into a fresh registry, and payloads older fleets wrote, whose
// element type was named ModelEntry, still decode because gob matches
// fields by name.
func TestReuseRegistrySnapshotRoundTrip(t *testing.T) {
	knobs := []string{"a", "b"}
	src := NewReuseRegistry()
	for i := 0; i < 10; i++ {
		src.Commit(testModel(fmt.Sprintf("mysql/w%d", i), fmt.Sprintf("t%d", i), float64(i), knobs, 3))
	}
	var buf bytes.Buffer
	if err := src.SnapshotTo(&buf); err != nil {
		t.Fatal(err)
	}
	r := NewReuseRegistry()
	if err := r.RestoreFrom(&buf); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 10 {
		t.Fatalf("restored %d models, want 10", r.Len())
	}
	if got, ok := r.Match("mysql/w9", knobs, 3); !ok || got.Tag != "t9" || got.Fitness != 9 {
		t.Fatalf("restored model = %+v, %v", got, ok)
	}

	type ModelEntry struct {
		Signature, Tag string
		KnobNames      []string
		StateDim       int
		Fitness        float64
		Snap           ddpg.Snapshot
	}
	type storeDump struct{ Entries map[string]ModelEntry }
	buf.Reset()
	if err := gob.NewEncoder(&buf).Encode(storeDump{Entries: map[string]ModelEntry{
		"mysql/tpcc": {"mysql/tpcc", "t0007", knobs, 63, 0.8, testSnapshot(63, 2, 0.8)},
	}}); err != nil {
		t.Fatal(err)
	}
	r = NewReuseRegistry()
	if err := r.RestoreFrom(&buf); err != nil {
		t.Fatal(err)
	}
	got, ok := r.Match("mysql/tpcc", knobs, 63)
	if !ok || got.Tag != "t0007" || got.Fitness != 0.8 || got.Snap.Actor[2] != 0.8 {
		t.Fatalf("restored fleet store model = %+v, %v", got, ok)
	}
}

func TestRegistryLoadGarbage(t *testing.T) {
	r := NewReuseRegistry()
	if err := r.Load(bytes.NewReader([]byte("not gob"))); err == nil {
		t.Fatal("garbage input should fail")
	}
}

// TestRegistryLoadCorruption checks the versioned container rejects
// damaged registry files — truncation, bad magic, bit flips — without
// touching the registry's current contents.
func TestRegistryLoadCorruption(t *testing.T) {
	r := NewReuseRegistry()
	r.Commit(testModel("tpcc", "tpcc", 1, []string{"a", "b"}, 7))
	var buf bytes.Buffer
	if err := r.Save(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	live := NewReuseRegistry()
	live.Commit(testModel("keep", "keep", 1, []string{"x"}, 3))

	// Truncations at every eighth byte.
	for cut := 0; cut < len(good); cut += 8 {
		if err := live.Load(bytes.NewReader(good[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	// Bad magic.
	bad := append([]byte(nil), good...)
	bad[0] ^= 0xff
	if err := live.Load(bytes.NewReader(bad)); err == nil {
		t.Fatal("bad magic accepted")
	}
	// A bit flip anywhere in the payload region must be caught by a CRC.
	bad = append([]byte(nil), good...)
	bad[len(bad)-3] ^= 0x40
	if err := live.Load(bytes.NewReader(bad)); err == nil {
		t.Fatal("payload bit flip accepted")
	}
	if live.Len() != 1 {
		t.Fatalf("failed loads mutated the registry: %d models", live.Len())
	}
	if _, ok := live.Match("keep", []string{"x"}, 3); !ok {
		t.Fatal("failed loads clobbered the live model")
	}
}

// FuzzReuseRegistryRestore feeds RestoreFrom a registry whose one model
// had its state dimension, snapshot dimensions, knob count and one weight
// vector's length overwritten, as a corrupt or hostile registry file or
// fleet-store section would. RestoreFrom must not panic, and a model that
// Match then hands out must restore into a fresh agent of the probe's
// dimensions completely or not at all.
func FuzzReuseRegistryRestore(f *testing.F) {
	cfg := ddpg.Config{StateDim: 4, ActionDim: 3, Hidden: []int{8, 8}, Seed: 1}
	donor, err := ddpg.New(cfg)
	if err != nil {
		f.Fatal(err)
	}
	const sig = "mysql/tpcc"
	probe := []string{"a", "b", "c"}
	src := NewReuseRegistry()
	src.Commit(Model{Signature: sig, Tag: "donor", KnobNames: probe, StateDim: cfg.StateDim, Fitness: 1, Snap: donor.Snapshot()})
	var buf bytes.Buffer
	if err := src.SnapshotTo(&buf); err != nil {
		f.Fatal(err)
	}
	data := buf.Bytes()
	f.Add(4, 4, 3, uint8(3), uint8(0), int16(0))  // as committed
	f.Add(4, 4, 3, uint8(3), uint8(1), int16(-1)) // critic one weight short
	f.Fuzz(func(t *testing.T, stateDim, snapState, snapAction int, knobs, vec uint8, delta int16) {
		var dump registryDump
		if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&dump); err != nil {
			t.Fatal(err)
		}
		m := dump.Entries[sig]
		m.StateDim, m.Snap.StateDim, m.Snap.ActionDim = stateDim, snapState, snapAction
		// The probe's knobs first, so four names still overlap enough to
		// match a probe of three.
		m.KnobNames = nil
		for i := 0; i < int(knobs%8); i++ {
			m.KnobNames = append(m.KnobNames, string(rune('a'+i)))
		}
		// One weight vector gains delta zeros or loses its last -delta.
		w := []*[]float64{&m.Snap.Actor, &m.Snap.Critic, &m.Snap.ActorT, &m.Snap.CriticT}[vec%4]
		*w = append(*w, make([]float64, max(int(delta), 0))...)[:max(len(*w)+int(delta), 0)]
		dump.Entries[sig] = m
		var crafted bytes.Buffer
		if err := gob.NewEncoder(&crafted).Encode(dump); err != nil {
			t.Fatal(err)
		}

		r := NewReuseRegistry()
		if err := r.RestoreFrom(&crafted); err != nil {
			return
		}
		got, ok := r.Match(sig, probe, cfg.StateDim)
		if !ok {
			return
		}
		fresh := cfg
		fresh.Seed = 2
		a, err := ddpg.New(fresh)
		if err != nil {
			t.Fatal(err)
		}
		before := a.Snapshot()
		if err := a.Restore(got.Snap); err != nil {
			if !reflect.DeepEqual(a.Snapshot(), before) {
				t.Fatalf("failed restore (%v) changed the agent", err)
			}
			return
		}
		if !reflect.DeepEqual(a.Snapshot(), got.Snap) {
			t.Fatal("restore succeeded but the agent does not hold the snapshot")
		}
	})
}
