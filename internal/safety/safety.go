// Package safety implements the online safe-tuning guard that sits between
// the recommender and the serving instance: replicated canary measurement
// with outlier-robust aggregation (median-of-k, after TUNA's warning that
// single cloud samples are too noisy to gate on), a rolling-baseline
// guardrail ("never deploy measured worse than baseline minus margin"), a
// trust region that clamps per-deployment knob deltas and widens/shrinks on
// success/failure, SLO-aware monitoring of the deployed config, and the
// rollback/quarantine state machine from OnlineTune's safety assessment
// loop. The guard is pure bookkeeping over values its caller measured — it
// never touches a clock or an RNG — so it is deterministic by construction
// and its whole state is one gob-friendly struct.
package safety

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"github.com/hunter-cdb/hunter/internal/simdb"
)

// The guard's fixed policy. A tuning request personalizes the objective
// (SLOs, margin) and drift sensitivity through Options; how the guard
// paces, measures and steps is the system's policy and the same for every
// request.
const (
	// CanaryReplicas is how many replicated canary measurements feed the
	// median aggregate.
	CanaryReplicas = 3
	// TrustRadius is the initial per-knob step bound in normalized [0,1]
	// space. RadiusWiden/RadiusShrink scale it on deploy success/guardrail
	// failure, bounded by RadiusMin/RadiusMax.
	TrustRadius  = 0.25
	RadiusWiden  = 1.25
	RadiusShrink = 0.5
	RadiusMin    = 0.02
	RadiusMax    = 1.0
	// ViolationLimit is how many consecutive monitor violations trigger a
	// rollback.
	ViolationLimit = 2
	// MonitorEvery and DeployEvery pace the online loop in tuning waves.
	MonitorEvery = 2
	DeployEvery  = 4
	// BaselineWindow is the size of the rolling throughput window the
	// baseline median is taken over.
	BaselineWindow = 8
	// QuarantineRadius is the L∞ radius (normalized knob space) around a
	// rolled-back point that subsequent candidates must avoid.
	QuarantineRadius = 0.05
)

// Options configures the guard. Zero values select the documented defaults
// (see WithDefaults); the struct is flat scalars so checkpoint fingerprints
// can compare two option sets directly.
type Options struct {
	// Guardrails arms the canary gate, trust region, SLO monitor and
	// automatic rollback. When false the session still tunes online
	// (deploying candidates as they improve) but nothing blocks or
	// reverts a bad deploy — the "naive online" baseline.
	Guardrails bool
	// Margin is the fraction below the rolling baseline a measurement may
	// sit before it counts as a regression (default 0.05).
	Margin float64
	// SLOP99Ms is the p99 latency ceiling in milliseconds; 0 disables the
	// latency SLO.
	SLOP99Ms float64
	// SLOFloorTPS is the throughput floor; 0 disables it.
	SLOFloorTPS float64
	// DriftThreshold is the relative throughput divergence from the
	// rolling baseline that counts as a drift signal; 0 disables drift
	// detection.
	DriftThreshold float64
	// DriftWindow is how many consecutive drift signals confirm a drift
	// (default 2).
	DriftWindow int
}

// WithDefaults returns a copy with every unset field at its default.
func (o Options) WithDefaults() Options {
	if o.Margin == 0 {
		o.Margin = 0.05
	}
	if o.DriftWindow == 0 {
		o.DriftWindow = 2
	}
	return o
}

// Validate rejects option sets the state machine cannot run with. The
// comparisons are written so that NaN fails them: a NaN margin or SLO
// would make every guardrail comparison false and silently disarm it.
func (o Options) Validate() error {
	o = o.WithDefaults()
	if !(o.Margin > 0 && o.Margin < 1) {
		return fmt.Errorf("safety: margin %g outside (0,1)", o.Margin)
	}
	if !(o.SLOP99Ms >= 0) || math.IsInf(o.SLOP99Ms, 0) {
		return fmt.Errorf("safety: p99 SLO %g ms must be finite and >= 0", o.SLOP99Ms)
	}
	if !(o.SLOFloorTPS >= 0) || math.IsInf(o.SLOFloorTPS, 0) {
		return fmt.Errorf("safety: throughput floor %g must be finite and >= 0", o.SLOFloorTPS)
	}
	if !(o.DriftThreshold >= 0) || math.IsInf(o.DriftThreshold, 0) {
		return fmt.Errorf("safety: drift threshold %g must be finite and >= 0", o.DriftThreshold)
	}
	if o.DriftWindow < 1 {
		return fmt.Errorf("safety: drift window %d < 1", o.DriftWindow)
	}
	return nil
}

// Counts tallies the guard's typed outcomes for reporting and telemetry.
type Counts struct {
	Canaries      int `json:"canaries"`
	Deploys       int `json:"deploys"`
	Blocks        int `json:"guardrail_blocks"`
	Rollbacks     int `json:"rollbacks"`
	SLOViolations int `json:"slo_violations"`
	Drifts        int `json:"drifts_detected"`
}

// Region is a quarantined ball in normalized knob space.
type Region struct {
	Center []float64
	Radius float64
}

// Verdict is the outcome of one monitoring probe of the deployed config.
type Verdict struct {
	// BaselineTPS is the rolling-median baseline the probe was judged
	// against (0 while the window is empty).
	BaselineTPS float64
	// SLOBreach / BelowBaseline classify the violation, Violation is
	// their union.
	SLOBreach     bool
	BelowBaseline bool
	Violation     bool
	// RollbackDue fires when consecutive violations reach the limit.
	RollbackDue bool
	// DriftDetected fires when consecutive divergence signals reach the
	// drift window.
	DriftDetected bool
}

// Guard is the online safety state machine. It is not safe for concurrent
// use; the session drives it from the single wave-loop goroutine.
type Guard struct {
	opts Options
	st   State
}

// NewGuard builds a guard from validated options.
func NewGuard(opts Options) (*Guard, error) {
	opts = opts.WithDefaults()
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	return &Guard{opts: opts, st: State{Radius: TrustRadius, Blocked: map[string]bool{}}}, nil
}

// Options returns the guard's defaulted options.
func (g *Guard) Options() Options { return g.opts }

// Radius returns the current trust-region radius.
func (g *Guard) Radius() float64 { return g.st.Radius }

// Counts returns the outcome tallies so far.
func (g *Guard) Counts() Counts { return g.st.Counts }

// Baseline returns the rolling-median baseline TPS (0 while the window is
// empty, i.e. just after a reset).
func (g *Guard) Baseline() float64 {
	if len(g.st.Baseline) == 0 {
		return 0
	}
	w := append([]float64(nil), g.st.Baseline...)
	sort.Float64s(w)
	return w[(len(w)-1)/2]
}

// ClampStep bounds the move from the current point toward a candidate to
// the trust region: each normalized knob delta is clamped to ±radius and
// the result to [0,1]. The second return reports whether any clamping
// happened.
func (g *Guard) ClampStep(from, to []float64) ([]float64, bool) {
	out := make([]float64, len(to))
	clamped := false
	for i := range to {
		d := to[i]
		if i < len(from) {
			delta := to[i] - from[i]
			if delta > g.st.Radius {
				delta, clamped = g.st.Radius, true
			} else if delta < -g.st.Radius {
				delta, clamped = -g.st.Radius, true
			}
			d = from[i] + delta
		}
		if d < 0 {
			d, clamped = 0, true
		} else if d > 1 {
			d, clamped = 1, true
		}
		out[i] = d
	}
	return out, clamped
}

// Aggregate folds replicated canary measurements into one robust estimate:
// failed replicas are dropped, a strict majority of survivors is required,
// and the survivor with median throughput is returned (the lower median —
// the pessimistic half — when the count is even).
func (g *Guard) Aggregate(perfs []simdb.Perf) (simdb.Perf, bool) {
	ok := perfs[:0:0]
	for _, p := range perfs {
		if !p.Failed {
			ok = append(ok, p)
		}
	}
	if 2*len(ok) <= len(perfs) {
		return simdb.FailedPerf(), false
	}
	sort.SliceStable(ok, func(i, j int) bool { return ok[i].ThroughputTPS < ok[j].ThroughputTPS })
	return ok[(len(ok)-1)/2], true
}

// GateDeploy decides whether a canary aggregate may be deployed. The
// returned reason names the tripped guardrail for telemetry.
func (g *Guard) GateDeploy(canary simdb.Perf, baseline float64) (bool, string) {
	if canary.Failed {
		return false, "canary_failed"
	}
	if g.opts.SLOP99Ms > 0 && canary.P99LatencyMs > g.opts.SLOP99Ms {
		return false, "slo_p99"
	}
	if g.opts.SLOFloorTPS > 0 && canary.ThroughputTPS < g.opts.SLOFloorTPS {
		return false, "slo_tps"
	}
	if baseline > 0 && canary.ThroughputTPS < baseline*(1-g.opts.Margin) {
		return false, "baseline_margin"
	}
	return true, ""
}

// ObserveMonitor feeds one monitoring probe of the deployed config through
// the violation and drift-detection state machines. The baseline is taken
// over the window *before* this probe joins it, so a sudden collapse is
// judged against the healthy past.
func (g *Guard) ObserveMonitor(p simdb.Perf) Verdict {
	v := Verdict{BaselineTPS: g.Baseline()}
	if g.opts.SLOP99Ms > 0 && p.P99LatencyMs > g.opts.SLOP99Ms {
		v.SLOBreach = true
	}
	if g.opts.SLOFloorTPS > 0 && p.ThroughputTPS < g.opts.SLOFloorTPS {
		v.SLOBreach = true
	}
	if v.BaselineTPS > 0 && p.ThroughputTPS < v.BaselineTPS*(1-g.opts.Margin) {
		v.BelowBaseline = true
	}
	v.Violation = v.SLOBreach || v.BelowBaseline
	if v.SLOBreach {
		g.st.Counts.SLOViolations++
	}
	if v.Violation {
		g.st.Violations++
	} else {
		g.st.Violations = 0
	}
	if g.opts.Guardrails && g.st.Violations >= ViolationLimit {
		v.RollbackDue = true
	}
	if g.opts.DriftThreshold > 0 && v.BaselineTPS > 0 &&
		math.Abs(p.ThroughputTPS-v.BaselineTPS) > g.opts.DriftThreshold*v.BaselineTPS {
		g.st.DriftHits++
		if g.st.DriftHits >= g.opts.DriftWindow {
			v.DriftDetected = true
		}
	} else {
		g.st.DriftHits = 0
	}
	g.push(p.ThroughputTPS)
	return v
}

func (g *Guard) push(tps float64) {
	g.st.Baseline = append(g.st.Baseline, tps)
	if n := len(g.st.Baseline) - BaselineWindow; n > 0 {
		g.st.Baseline = append(g.st.Baseline[:0], g.st.Baseline[n:]...)
	}
}

// NoteCanary records one replicated canary wave.
func (g *Guard) NoteCanary() { g.st.Counts.Canaries++ }

// NoteDeploy records a successful guarded deploy: the trust region widens
// and the rolling baseline resets to the new config's canary median, so
// future probes are judged against the new normal.
func (g *Guard) NoteDeploy(seedTPS float64) {
	g.st.Counts.Deploys++
	g.st.Radius = math.Min(g.st.Radius*RadiusWiden, RadiusMax)
	g.st.Violations = 0
	g.st.Baseline = g.st.Baseline[:0]
	if seedTPS > 0 {
		g.push(seedTPS)
	}
}

// NoteBlock records a guardrail block of the candidate with the given key:
// the trust region shrinks and the key is gated until the next reset.
func (g *Guard) NoteBlock(key string) {
	g.st.Counts.Blocks++
	g.st.Radius = math.Max(g.st.Radius*RadiusShrink, RadiusMin)
	g.st.Blocked[key] = true
}

// NoteRollback records an automatic rollback: the offending point is
// quarantined, the block list and violation counter clear (the landscape
// has changed), and the baseline window reseeds at the restored config's
// throughput so monitoring re-baselines at the post-rollback normal.
func (g *Guard) NoteRollback(point []float64, seedTPS float64) {
	g.st.Counts.Rollbacks++
	if len(point) > 0 {
		g.st.Quarantine = append(g.st.Quarantine, Region{
			Center: append([]float64(nil), point...),
			Radius: QuarantineRadius,
		})
	}
	g.st.Blocked = map[string]bool{}
	g.st.Violations = 0
	g.st.DriftHits = 0
	g.st.Radius = math.Max(g.st.Radius*RadiusShrink, RadiusMin)
	g.st.Baseline = g.st.Baseline[:0]
	if seedTPS > 0 {
		g.push(seedTPS)
	}
}

// ResetViolations clears the consecutive-violation run without recording a
// rollback. Used when a due rollback resolves to the already-deployed
// configuration (nothing distinct to restore): the violation run restarts,
// but the trust radius, blocked set and rollback tally stay untouched.
func (g *Guard) ResetViolations() { g.st.Violations = 0 }

// NoteDrift records a confirmed workload drift: blocks, violations and the
// baseline window clear because past judgments no longer apply.
func (g *Guard) NoteDrift() {
	g.st.Counts.Drifts++
	g.st.Blocked = map[string]bool{}
	g.st.Violations = 0
	g.st.DriftHits = 0
	g.st.Baseline = g.st.Baseline[:0]
}

// Blocked reports whether a candidate key was gated since the last reset.
func (g *Guard) Blocked(key string) bool { return g.st.Blocked[key] }

// InQuarantine reports whether a normalized point falls inside any
// quarantined region (L∞ distance to the region center).
func (g *Guard) InQuarantine(point []float64) bool {
	for _, r := range g.st.Quarantine {
		if len(r.Center) != len(point) {
			continue
		}
		inside := true
		for i := range point {
			if math.Abs(point[i]-r.Center[i]) > r.Radius {
				inside = false
				break
			}
		}
		if inside {
			return true
		}
	}
	return false
}

// State is the guard's complete durable state. The guard keeps it as one
// value, so a checkpoint encodes it whole.
type State struct {
	Radius     float64
	Baseline   []float64 // rolling window of monitored deployed-config TPS
	Violations int       // consecutive monitor violations
	DriftHits  int       // consecutive drift-divergence signals
	Quarantine []Region
	Blocked    map[string]bool // candidate keys gated away since last reset
	Counts     Counts
}

// clone returns a deep copy of st.
func (st State) clone() State {
	out := st
	out.Baseline = append([]float64(nil), st.Baseline...)
	out.Quarantine = make([]Region, len(st.Quarantine))
	for i, r := range st.Quarantine {
		out.Quarantine[i] = Region{Center: append([]float64(nil), r.Center...), Radius: r.Radius}
	}
	out.Blocked = make(map[string]bool, len(st.Blocked))
	for k, v := range st.Blocked {
		out.Blocked[k] = v
	}
	return out
}

// Snapshot exports a deep copy of the guard state.
func (g *Guard) Snapshot() State { return g.st.clone() }

// Restore reinstates a deep copy of a snapshotted state.
func (g *Guard) Restore(st State) { g.st = st.clone() }

// Report is the guard's final tally for session reports.
type Report struct {
	Guardrails bool `json:"guardrails"`
	Counts
	Quarantined int     `json:"quarantined_regions"`
	FinalRadius float64 `json:"final_trust_radius"`
	BaselineTPS float64 `json:"baseline_tps"`
}

// ReportNow summarizes the guard's current state.
func (g *Guard) ReportNow() Report {
	return Report{
		Guardrails:  g.opts.Guardrails,
		Counts:      g.st.Counts,
		Quarantined: len(g.st.Quarantine),
		FinalRadius: g.st.Radius,
		BaselineTPS: g.Baseline(),
	}
}

// Summary renders the report as the indented block the CLIs print, in the
// style of ResilienceReport.Summary.
func (r Report) Summary() string {
	var b strings.Builder
	mode := "guardrails on"
	if !r.Guardrails {
		mode = "guardrails off (naive online)"
	}
	fmt.Fprintf(&b, "online safety (%s):\n", mode)
	fmt.Fprintf(&b, "  canary waves:     %d\n", r.Canaries)
	fmt.Fprintf(&b, "  online deploys:   %d\n", r.Deploys)
	fmt.Fprintf(&b, "  guardrail blocks: %d\n", r.Blocks)
	fmt.Fprintf(&b, "  rollbacks:        %d\n", r.Rollbacks)
	fmt.Fprintf(&b, "  slo violations:   %d\n", r.SLOViolations)
	fmt.Fprintf(&b, "  drifts detected:  %d\n", r.Drifts)
	fmt.Fprintf(&b, "  quarantined:      %d region(s)\n", r.Quarantined)
	fmt.Fprintf(&b, "  trust radius:     %.3f\n", r.FinalRadius)
	return b.String()
}
