// Package cloud simulates the CDB provider's control plane the paper's
// Controller drives through the cloud API: instance types (Table 7),
// primary/secondary instance pairs, cloning a user's instance from its
// backup onto idle instances, knob deployment with restarts, the buffer
// pool warm-up function, and point-in-time recovery for stable replay.
package cloud

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"github.com/hunter-cdb/hunter/internal/chaos"
	"github.com/hunter-cdb/hunter/internal/knob"
	"github.com/hunter-cdb/hunter/internal/metrics"
	"github.com/hunter-cdb/hunter/internal/sim"
	"github.com/hunter-cdb/hunter/internal/simdb"
	"github.com/hunter-cdb/hunter/internal/telemetry"
	"github.com/hunter-cdb/hunter/internal/workload"
)

// InstanceType is a cloud instance size (Table 7).
type InstanceType struct {
	Name  string
	Cores int
	RAMGB int
}

// Types lists the instance types of Table 7.
func Types() []InstanceType {
	return []InstanceType{
		{"A", 1, 2}, {"B", 4, 8}, {"C", 4, 12}, {"D", 4, 16},
		{"E", 6, 24}, {"F", 8, 32}, {"G", 8, 48}, {"H", 16, 64},
	}
}

// TypeByName looks up an instance type.
func TypeByName(name string) (InstanceType, error) {
	for _, t := range Types() {
		if t.Name == name {
			return t, nil
		}
	}
	return InstanceType{}, fmt.Errorf("cloud: unknown instance type %q", name)
}

// Resources maps an instance type onto simulated hardware. Disk capability
// scales with instance size, as cloud block storage is provisioned
// proportionally.
func (t InstanceType) Resources() simdb.Resources {
	return simdb.Resources{
		Cores:             t.Cores,
		RAMBytes:          int64(t.RAMGB) << 30,
		DiskIOPS:          2000 + 750*float64(t.Cores),
		DiskReadLatencyMs: 0.9,
		FsyncLatencyMs:    0.6,
		CoreSpeed:         1.0,
	}
}

// CustomType builds an ad-hoc instance type (the paper's PostgreSQL host
// is 8 cores / 16 GB, which is not in Table 7).
func CustomType(name string, cores, ramGB int) InstanceType {
	return InstanceType{Name: name, Cores: cores, RAMGB: ramGB}
}

// Control-plane timing constants. Together with the Table 1 stress-test
// costs in the tuner package these determine every virtual-clock charge.
const (
	// CloneTime is the one-time cost of creating a cloned CDB from the
	// user's backup.
	CloneTime = 3 * time.Minute
	// RestartTime is the extra deployment cost when a restart-required
	// knob changes.
	RestartTime = 25 * time.Second
	// PITRTime is a point-in-time recovery before a production replay.
	PITRTime = 20 * time.Second
)

// Control-plane fault sentinels. The chaos layer wraps these into the
// errors its hook points return; the tuner's supervisor classifies on
// them to pick retry-with-backoff (transient) vs re-provisioning.
var (
	// ErrTransient marks a retryable control-plane error (API throttle,
	// leader election, network blip): the same call may succeed next time.
	ErrTransient = errors.New("transient control-plane error")
	// ErrBootFailure marks an instance that failed to come up at
	// provisioning time; the provision attempt consumed no resources.
	ErrBootFailure = errors.New("instance failed to boot")
)

// IsTransient reports whether err is a retryable control-plane fault.
func IsTransient(err error) bool { return errors.Is(err, ErrTransient) }

// IsBootFailure reports whether err is a provisioning boot failure.
func IsBootFailure(err error) bool { return errors.Is(err, ErrBootFailure) }

// Instance is one CDB: a primary/secondary pair from the user's point of
// view, a single simulated engine from the simulator's.
type Instance struct {
	ID      string
	Type    InstanceType
	Dialect simdb.Dialect
	IsClone bool

	engine   *simdb.Engine
	restarts int
	failures int
	tel      *providerTel

	// uid is the provisioning sequence number and deploySeq counts Deploy
	// calls on this instance; together they key the chaos engine's
	// deterministic fault decisions for this instance.
	uid       int64
	deploySeq int64
	chaos     *chaos.Engine
}

// Engine exposes the underlying simulated engine (tests and experiments
// use it; tuners must go through Deploy/StressTest).
func (i *Instance) Engine() *simdb.Engine { return i.engine }

// Config returns the instance's active configuration.
func (i *Instance) Config() knob.Config { return i.engine.Config() }

// Restarts returns how many restarts deployments have caused.
func (i *Instance) Restarts() int { return i.restarts }

// BootFailures returns how many deployments failed to boot.
func (i *Instance) BootFailures() int { return i.failures }

// Deploy applies a configuration, reporting whether a restart was needed
// and how long deployment took in virtual time. On boot failure the
// instance automatically recovers onto its previous configuration (the
// paper's Actor skips the workload execution and scores the configuration
// −1000).
func (i *Instance) Deploy(cfg knob.Config, baseDeploy time.Duration) (restarted bool, took time.Duration, err error) {
	seq := i.deploySeq
	i.deploySeq++
	if i.chaos.TransientDeploy(i.uid, seq) {
		// The control plane rejected the call before touching the engine:
		// no restart, no config change — the attempt still costs its base
		// deploy time.
		if i.tel != nil {
			i.tel.transients.Add(1)
			i.tel.deployDur.Observe(baseDeploy)
		}
		return false, baseDeploy, fmt.Errorf("cloud: deploy %s: %w", i.ID, ErrTransient)
	}
	restarted = knob.RequiresRestart(i.engine.Catalog(), i.engine.Config(), cfg)
	took = baseDeploy
	if restarted {
		took += RestartTime
		i.restarts++
	}
	if restarted && i.tel != nil {
		i.tel.restarts.Add(1)
	}
	if i.tel != nil {
		// Every deployment attempt is observed at the virtual cost it was
		// charged — restart time and transient rejections included.
		i.tel.deployDur.Observe(took)
	}
	if err := i.engine.Configure(cfg); err != nil {
		i.failures++
		if i.tel != nil {
			i.tel.bootFails.Add(1)
		}
		return restarted, took, err
	}
	return restarted, took, nil
}

// StressTest executes the workload once and returns performance, metrics
// and the virtual duration of the run (execution window plus buffer-pool
// warm-up, plus PITR for replayed production traces). An injected slow-I/O
// fault stretches the execution and warm-up portion by the engine's
// reported factor — the straggler shows up as a longer wave, not as a
// different measurement.
func (i *Instance) StressTest(p *workload.Profile, execWindow time.Duration) (simdb.Perf, metrics.Vector, time.Duration, error) {
	perf, mv, err := i.engine.Run(p)
	took := execWindow
	if w := i.engine.LastWarmupSeconds(); w > 0 {
		took += time.Duration(w * float64(time.Second))
	}
	if f := i.engine.LastSlowFactor(); f > 1 {
		took = time.Duration(float64(took) * f)
	}
	if p.ReplayConcurrency > 0 {
		took += PITRTime
	}
	return perf, mv, took, err
}

// Provider is the cloud control plane: it owns the idle-instance pool the
// Actors draw cloned CDBs from.
type Provider struct {
	rng      *sim.RNG
	nextID   int
	capacity int
	active   map[string]*Instance
	rec      *telemetry.Recorder
	tel      *providerTel

	// chaos is the armed fault injector (nil = perfect cloud); createSeq
	// and cloneSeq key its per-call fault decisions.
	chaos     *chaos.Engine
	createSeq int64
	cloneSeq  int64
}

// providerTel is the control plane's counter set, resolved once at
// SetRecorder. transients is only resolved once a chaos plan is armed, so
// chaos-off metric expositions are unchanged.
type providerTel struct {
	created    *telemetry.Counter
	clones     *telemetry.Counter
	denied     *telemetry.Counter
	released   *telemetry.Counter
	restarts   *telemetry.Counter
	bootFails  *telemetry.Counter
	transients *telemetry.Counter
	active     *telemetry.Gauge
	deployDur  *telemetry.Histogram // virtual knob-deployment times
}

// SetRecorder attaches (or, with nil, detaches) the control plane, every
// currently active instance and its engine to a telemetry recorder.
// Instances provisioned later inherit the attachment automatically.
func (p *Provider) SetRecorder(r *telemetry.Recorder) {
	p.rec = r
	p.tel = nil
	if r != nil {
		p.tel = &providerTel{
			created:   r.Counter("cloud.instances_created"),
			clones:    r.Counter("cloud.clones_created"),
			denied:    r.Counter("cloud.clones_denied"),
			released:  r.Counter("cloud.instances_released"),
			restarts:  r.Counter("cloud.restarts"),
			bootFails: r.Counter("cloud.boot_failures"),
			active:    r.Gauge("cloud.instances_active"),
			deployDur: r.Histogram("cloud.deploy_seconds"),
		}
		if p.chaos != nil {
			p.tel.transients = r.Counter("cloud.transient_faults")
		}
		p.tel.active.Set(float64(len(p.active)))
	}
	for _, inst := range p.active {
		inst.tel = p.tel
		inst.engine.SetRecorder(r)
	}
}

// SetChaos arms (or, with nil, disarms) fault injection on the control
// plane and every currently active instance. Instances provisioned later
// inherit the injector automatically.
func (p *Provider) SetChaos(e *chaos.Engine) {
	p.chaos = e
	for _, inst := range p.active {
		inst.chaos = e
	}
	if e != nil && p.tel != nil && p.tel.transients == nil {
		p.tel.transients = p.rec.Counter("cloud.transient_faults")
	}
}

// NewProvider creates a provider with the given idle-instance capacity
// (maximum simultaneously active instances; the paper's experiments use up
// to 20 clones plus the user instance).
func NewProvider(capacity int, seed int64) *Provider {
	if capacity <= 0 {
		capacity = 64
	}
	return &Provider{rng: sim.NewRNG(seed), capacity: capacity, active: make(map[string]*Instance)}
}

// ActiveCount returns the number of instances currently provisioned.
func (p *Provider) ActiveCount() int { return len(p.active) }

// CreateInstance provisions a fresh instance of the given type and
// dialect with the default configuration.
func (p *Provider) CreateInstance(t InstanceType, d simdb.Dialect) (*Instance, error) {
	if len(p.active) >= p.capacity {
		if p.tel != nil {
			p.tel.denied.Add(1)
		}
		return nil, fmt.Errorf("cloud: resource pool exhausted (%d instances)", p.capacity)
	}
	seq := p.createSeq
	p.createSeq++
	if p.chaos.BootFailure(seq) {
		// The roll happens before the ID allocator or the seeding RNG are
		// touched, so a failed provision consumes no provider state and a
		// retry sees a fresh decision.
		if p.tel != nil {
			p.tel.bootFails.Add(1)
		}
		return nil, fmt.Errorf("cloud: provisioning %s instance: %w", t.Name, ErrBootFailure)
	}
	p.nextID++
	eng, err := simdb.NewEngine(d, t.Resources(), p.rng.Int63())
	if err != nil {
		return nil, err
	}
	eng.SetRecorder(p.rec)
	inst := &Instance{
		ID:      fmt.Sprintf("cdb-%s-%04d", t.Name, p.nextID),
		Type:    t,
		Dialect: d,
		engine:  eng,
		tel:     p.tel,
		uid:     int64(p.nextID),
		chaos:   p.chaos,
	}
	p.active[inst.ID] = inst
	if p.tel != nil {
		p.tel.created.Add(1)
		p.tel.active.Set(float64(len(p.active)))
	}
	return inst, nil
}

// Clone creates a cloned CDB from src's backup: same type, dialect, data
// and configuration. Cloning is how the Controller keeps exploration off
// the user's instance (§2.2).
func (p *Provider) Clone(src *Instance) (*Instance, error) {
	seq := p.cloneSeq
	p.cloneSeq++
	if p.chaos.TransientClone(seq) {
		if p.tel != nil {
			p.tel.transients.Add(1)
		}
		return nil, fmt.Errorf("cloud: clone of %s: %w", src.ID, ErrTransient)
	}
	c, err := p.CreateInstance(src.Type, src.Dialect)
	if err != nil {
		return nil, err
	}
	c.IsClone = true
	if p.tel != nil {
		p.tel.clones.Add(1)
	}
	if err := c.engine.Configure(src.Config()); err != nil {
		// The source config booted on identical hardware; failure here is
		// a provider bug.
		p.Release(c)
		return nil, fmt.Errorf("cloud: clone boot failed: %w", err)
	}
	return c, nil
}

// Release returns an instance to the idle pool.
func (p *Provider) Release(i *Instance) {
	delete(p.active, i.ID)
	if p.tel != nil {
		p.tel.released.Add(1)
		p.tel.active.Set(float64(len(p.active)))
	}
}

// Resize migrates an instance to a new type, keeping its configuration
// where it still boots (the instance-type change of §6.5). It returns the
// new instance; the old one is released.
func (p *Provider) Resize(i *Instance, t InstanceType) (*Instance, error) {
	n, err := p.CreateInstance(t, i.Dialect)
	if err != nil {
		return nil, err
	}
	n.IsClone = i.IsClone
	if err := n.engine.Configure(i.Config()); err != nil {
		// Keep defaults when the old configuration cannot boot on the new
		// hardware (e.g. buffer pool larger than the new RAM).
		n.failures++
	}
	p.Release(i)
	return n, nil
}

// ActiveIDs returns the sorted IDs of provisioned instances (diagnostics).
func (p *Provider) ActiveIDs() []string {
	out := make([]string, 0, len(p.active))
	for id := range p.active {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}
