// Package chaos is the deterministic fault injector for the simulated
// cloud: a seeded fault plan that fires at defined hook points — instance
// boot failure at provisioning, transient control-plane errors on
// Clone/Deploy, instance crash mid-stress-test, slow-I/O stragglers, and
// hung actors — plus the self-healing policy (bounded retry with
// exponential backoff, per-actor deadlines, quarantine thresholds) the
// tuning loop uses to survive them.
//
// Determinism contract: every fault decision is a pure function of
// (engine seed, hook site, caller-supplied sequence numbers). The engine
// holds no mutable roll state, so decisions are identical regardless of
// goroutine scheduling or worker count, and a checkpointed session needs
// to persist only the seed, the profile and the callers' sequence
// counters to replay the exact same fault plan after a resume. All fault
// delays are expressed in virtual time; the injector never sleeps.
package chaos

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// The self-healing policy every profile shares. Only the quarantine
// threshold varies by profile (Profile.QuarantineAfter).
const (
	// MaxRetries bounds the retry loop around transient faults.
	MaxRetries = 3
	// BackoffBase is the first retry delay; each further attempt doubles
	// it, capped at BackoffCap. Delays are charged to the virtual clock.
	BackoffBase = 10 * time.Second
	BackoffCap  = 5 * time.Minute
	// DeadlineFactor sets the per-actor wave deadline as a multiple of the
	// nominal step cost (deploy + restart + execution + collection).
	DeadlineFactor = 4.0
)

// Profile describes a fault environment: per-hook-point probabilities and
// the quarantine threshold the tuning loop should apply under it.
type Profile struct {
	// Name identifies the profile ("mild", "flaky", "catastrophic"; "off"
	// or empty disables injection).
	Name string

	// BootFailProb is the chance an instance fails to boot at
	// provisioning (Provider.CreateInstance / Clone).
	BootFailProb float64
	// TransientCloneProb is the chance Provider.Clone hits a transient
	// control-plane error (retryable).
	TransientCloneProb float64
	// TransientDeployProb is the chance Instance.Deploy hits a transient
	// control-plane error (retryable).
	TransientDeployProb float64
	// CrashProb is the chance an actor's instance crashes partway through
	// a stress test (the clone is lost and must be replaced).
	CrashProb float64
	// SlowIOProb is the chance an actor's step suffers degraded I/O,
	// multiplying its virtual duration by a factor in [SlowIOMin, SlowIOMax).
	SlowIOProb           float64
	SlowIOMin, SlowIOMax float64
	// HangProb is the chance an actor hangs: its step exceeds the wave
	// deadline and is abandoned.
	HangProb float64

	// QuarantineAfter is the number of faults (strikes) after which an
	// actor slot is quarantined and the fleet shrinks.
	QuarantineAfter int
}

// Enabled reports whether the profile injects any faults at all.
func (p Profile) Enabled() bool {
	return p.BootFailProb > 0 || p.TransientCloneProb > 0 || p.TransientDeployProb > 0 ||
		p.CrashProb > 0 || p.SlowIOProb > 0 || p.HangProb > 0
}

// withDefaults fills unset policy fields with safe defaults.
func (p Profile) withDefaults() Profile {
	if p.QuarantineAfter <= 0 {
		p.QuarantineAfter = 3
	}
	if p.SlowIOMin < 1 {
		p.SlowIOMin = 1.5
	}
	if p.SlowIOMax <= p.SlowIOMin {
		p.SlowIOMax = p.SlowIOMin + 1
	}
	return p
}

// Off is the empty profile: no injection.
func Off() Profile { return Profile{Name: "off"} }

// Mild models a healthy cloud with the occasional blip: rare boot
// failures and transients, very rare crashes, mild stragglers.
func Mild() Profile {
	return Profile{
		Name:                "mild",
		BootFailProb:        0.02,
		TransientCloneProb:  0.05,
		TransientDeployProb: 0.02,
		CrashProb:           0.01,
		SlowIOProb:          0.06,
		SlowIOMin:           1.3,
		SlowIOMax:           2.2,
		HangProb:            0.005,
	}.withDefaults()
}

// Flaky models an unstable fleet: frequent transients and stragglers,
// regular crashes — the environment the self-healing loop is built for.
func Flaky() Profile {
	return Profile{
		Name:                "flaky",
		BootFailProb:        0.05,
		TransientCloneProb:  0.12,
		TransientDeployProb: 0.08,
		CrashProb:           0.04,
		SlowIOProb:          0.15,
		SlowIOMin:           1.5,
		SlowIOMax:           2.8,
		HangProb:            0.02,
	}.withDefaults()
}

// Catastrophic crashes every stress test: replacements crash too, actors
// strike out fast, and the fleet collapses — the total-fleet-loss path.
func Catastrophic() Profile {
	p := Profile{
		Name:      "catastrophic",
		CrashProb: 1,
	}.withDefaults()
	p.QuarantineAfter = 2
	return p
}

// Profiles lists the built-in profile names.
func Profiles() []string {
	out := []string{"off", "mild", "flaky", "catastrophic"}
	sort.Strings(out)
	return out
}

// ProfileByName resolves a built-in profile.
func ProfileByName(name string) (Profile, error) {
	switch strings.ToLower(name) {
	case "", "off", "none":
		return Off(), nil
	case "mild":
		return Mild(), nil
	case "flaky":
		return Flaky(), nil
	case "catastrophic":
		return Catastrophic(), nil
	}
	return Profile{}, fmt.Errorf("chaos: unknown profile %q (have %s)", name, strings.Join(Profiles(), ", "))
}

// Plan arms fault injection for one tuning session: a user seed (mixed
// into a fork of the session RNG, so -chaos-seed varies the fault plan
// without touching the tuning trajectory's seed) and a profile.
type Plan struct {
	Seed    int64
	Profile Profile
}

// Enabled reports whether the plan injects faults.
func (p *Plan) Enabled() bool { return p != nil && p.Profile.Enabled() }

// Counts tallies injected faults by kind.
type Counts struct {
	BootFailures int64
	Transients   int64
	Crashes      int64
	SlowIO       int64
	Hangs        int64
}

// Total is the sum over every kind.
func (c Counts) Total() int64 {
	return c.BootFailures + c.Transients + c.Crashes + c.SlowIO + c.Hangs
}

// Engine draws fault decisions for one session. Decision methods are pure
// functions of (seed, site, sequence numbers); the only mutable state is
// the injection tally, which is order-independent and safe for concurrent
// actors. A nil *Engine is the disabled injector: every decision is "no
// fault".
type Engine struct {
	seed int64
	p    Profile

	nBoot, nTransient, nCrash, nSlow, nHang atomic.Int64
}

// NewEngine builds an injector from a seed and a profile. The caller
// derives the seed by forking the session RNG and mixing the plan seed in,
// which keeps fault plans reproducible per (session seed, chaos seed).
func NewEngine(seed int64, p Profile) *Engine {
	return &Engine{seed: seed, p: p.withDefaults()}
}

// Seed returns the engine seed (persisted by checkpoints).
func (e *Engine) Seed() int64 { return e.seed }

// Profile returns the armed profile.
func (e *Engine) Profile() Profile { return e.p }

// Counts snapshots the injection tally.
func (e *Engine) Counts() Counts {
	if e == nil {
		return Counts{}
	}
	return Counts{
		BootFailures: e.nBoot.Load(),
		Transients:   e.nTransient.Load(),
		Crashes:      e.nCrash.Load(),
		SlowIO:       e.nSlow.Load(),
		Hangs:        e.nHang.Load(),
	}
}

// SetCounts reinstates a tally captured by Counts (checkpoint resume).
func (e *Engine) SetCounts(c Counts) {
	if e == nil {
		return
	}
	e.nBoot.Store(c.BootFailures)
	e.nTransient.Store(c.Transients)
	e.nCrash.Store(c.Crashes)
	e.nSlow.Store(c.SlowIO)
	e.nHang.Store(c.Hangs)
}

// Hook sites. Distinct constants keep every decision stream independent.
const (
	siteBootFail uint64 = 1 + iota
	siteTransientClone
	siteTransientDeploy
	siteCrash
	siteCrashFraction
	siteSlowIO
	siteSlowFactor
	siteHang
)

// splitmix64 is the SplitMix64 finalizer — a high-quality 64-bit mixer.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// u01 returns a uniform sample in [0,1) keyed by (seed, site, a, b).
func (e *Engine) u01(site uint64, a, b int64) float64 {
	h := splitmix64(uint64(e.seed) ^ site*0x9e3779b97f4a7c15)
	h = splitmix64(h ^ uint64(a)*0xff51afd7ed558ccd)
	h = splitmix64(h ^ uint64(b)*0xc4ceb9fe1a85ec53)
	return float64(h>>11) / (1 << 53)
}

// BootFailure decides whether the seq-th instance provisioning fails to
// boot.
func (e *Engine) BootFailure(seq int64) bool {
	if e == nil || e.p.BootFailProb <= 0 {
		return false
	}
	if e.u01(siteBootFail, seq, 0) < e.p.BootFailProb {
		e.nBoot.Add(1)
		return true
	}
	return false
}

// TransientClone decides whether the seq-th Clone call hits a transient
// control-plane error.
func (e *Engine) TransientClone(seq int64) bool {
	if e == nil || e.p.TransientCloneProb <= 0 {
		return false
	}
	if e.u01(siteTransientClone, seq, 0) < e.p.TransientCloneProb {
		e.nTransient.Add(1)
		return true
	}
	return false
}

// TransientDeploy decides whether deploy number seq on instance uid hits
// a transient control-plane error.
func (e *Engine) TransientDeploy(uid, seq int64) bool {
	if e == nil || e.p.TransientDeployProb <= 0 {
		return false
	}
	if e.u01(siteTransientDeploy, uid, seq) < e.p.TransientDeployProb {
		e.nTransient.Add(1)
		return true
	}
	return false
}

// Crash decides whether actor's step seq crashes its instance mid-run.
func (e *Engine) Crash(actor, seq int64) bool {
	if e == nil || e.p.CrashProb <= 0 {
		return false
	}
	if e.u01(siteCrash, actor, seq) < e.p.CrashProb {
		e.nCrash.Add(1)
		return true
	}
	return false
}

// CrashFraction returns how far through the execution window the crash
// struck, in [0.05, 0.95) — the portion of the window the wave is still
// charged for.
func (e *Engine) CrashFraction(actor, seq int64) float64 {
	if e == nil {
		return 0
	}
	return 0.05 + 0.9*e.u01(siteCrashFraction, actor, seq)
}

// SlowIO decides whether actor's step seq is a straggler, and by what
// factor its virtual duration stretches.
func (e *Engine) SlowIO(actor, seq int64) (factor float64, ok bool) {
	if e == nil || e.p.SlowIOProb <= 0 {
		return 1, false
	}
	if e.u01(siteSlowIO, actor, seq) >= e.p.SlowIOProb {
		return 1, false
	}
	e.nSlow.Add(1)
	f := e.p.SlowIOMin + (e.p.SlowIOMax-e.p.SlowIOMin)*e.u01(siteSlowFactor, actor, seq)
	return f, true
}

// Hang decides whether actor's step seq hangs past the wave deadline.
func (e *Engine) Hang(actor, seq int64) bool {
	if e == nil || e.p.HangProb <= 0 {
		return false
	}
	if e.u01(siteHang, actor, seq) < e.p.HangProb {
		e.nHang.Add(1)
		return true
	}
	return false
}

// HangFactor is the took multiplier a hung actor reports — far past any
// deadline, so the supervisor is guaranteed to abandon it.
func (e *Engine) HangFactor() float64 {
	if e == nil {
		return 1
	}
	return 8 * DeadlineFactor
}

// Backoff returns the bounded-exponential retry delay for the given
// attempt (0-based), charged to the virtual clock by the caller.
func (e *Engine) Backoff(attempt int) time.Duration {
	if e == nil {
		return 0
	}
	d := BackoffBase
	for i := 0; i < attempt && d < BackoffCap; i++ {
		d *= 2
	}
	return min(d, BackoffCap)
}

// MaxRetries returns the transient-fault retry bound (0 when disabled).
func (e *Engine) MaxRetries() int {
	if e == nil {
		return 0
	}
	return MaxRetries
}

// DeadlineFactor returns the per-actor deadline multiple (0 when
// disabled).
func (e *Engine) DeadlineFactor() float64 {
	if e == nil {
		return 0
	}
	return DeadlineFactor
}

// QuarantineAfter returns the strike threshold for quarantine.
func (e *Engine) QuarantineAfter() int {
	if e == nil {
		return 0
	}
	return e.p.QuarantineAfter
}
