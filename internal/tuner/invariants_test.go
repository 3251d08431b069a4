package tuner_test

// The invariant harness: HUNTER runs over a pairwise covering array of six
// two-level mode factors, and every row is checked against a reference run
// with the same modes. See DESIGN §6.
//
// Factors (level 0 / level 1):
//
//	W  worker pool          1 / 8
//	C  chaos                off / flaky (seed 7)
//	S  safety               off / guardrails + seeded diurnal drift stream
//	Z  evaluation           TPC-C / compressed production kernel with
//	                        wave dedup and warm-state deltas
//	K  durability           run through / kill at a wave, then resume
//	T  sinks                off / telemetry recorder + status registry
//
// The reference of a row has the row's C, S and Z, runs at W=1, runs
// through and is traced. Every row differs from its reference in at least
// one factor, so every row tests something.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/hunter-cdb/hunter/internal/chaos"
	"github.com/hunter-cdb/hunter/internal/checkpoint"
	"github.com/hunter-cdb/hunter/internal/core"
	"github.com/hunter-cdb/hunter/internal/obsv"
	"github.com/hunter-cdb/hunter/internal/parallel"
	"github.com/hunter-cdb/hunter/internal/safety"
	"github.com/hunter-cdb/hunter/internal/telemetry"
	"github.com/hunter-cdb/hunter/internal/tuner"
	"github.com/hunter-cdb/hunter/internal/workload"
)

// chaosMode is factor C. chaosOffPlan is level "off" reached through a
// non-nil plan with the off profile: arming the machinery with nothing to
// inject must change nothing.
type chaosMode int

const (
	chaosOff chaosMode = iota
	chaosOffPlan
	chaosFlaky
)

// killPoint is factor K. The kill variants all count as level "kill"; each
// names the phase the killed leg must stop in.
type killPoint int

const (
	runThrough  killPoint = iota
	killFactory           // in the GA sample factory
	killExplore           // in DDPG exploration
	killBlocked           // after the first guardrail block, before the first rollback
)

func (k killPoint) String() string {
	return [...]string{"through", "kill-factory", "kill-explore", "kill-blocked"}[k]
}

// invariantCase is one row of the covering array (or a reference run).
type invariantCase struct {
	workers    int
	chaos      chaosMode
	guarded    bool
	compressed bool
	kill       killPoint
	traced     bool
}

func (c invariantCase) String() string {
	return fmt.Sprintf("W%d/%s/%s/%s/%s/%s", c.workers,
		[...]string{"chaos-off", "chaos-off-plan", "flaky"}[c.chaos],
		pick(c.guarded, "guarded", "unguarded"), pick(c.compressed, "compressed", "tpcc"),
		c.kill, pick(c.traced, "traced", "untraced"))
}

func pick(b bool, yes, no string) string {
	if b {
		return yes
	}
	return no
}

// factorNames and levels map a case onto its two-level factors.
var factorNames = [6]string{"W", "C", "S", "Z", "K", "T"}

func (c invariantCase) levels() [6]bool {
	return [6]bool{c.workers == 8, c.chaos == chaosFlaky, c.guarded, c.compressed, c.kill != runThrough, c.traced}
}

// reference returns the run a row is compared against.
func (c invariantCase) reference() invariantCase {
	ref := invariantCase{workers: 1, chaos: c.chaos, guarded: c.guarded, compressed: c.compressed, kill: runThrough, traced: true}
	if ref.chaos == chaosOffPlan {
		ref.chaos = chaosOff
	}
	return ref
}

// invariantRows is a strength-2 covering array over the six factors:
// every pair of levels of any two factors appears in some row.
var invariantRows = []invariantCase{
	{workers: 1, chaos: chaosOff, guarded: false, compressed: false, kill: runThrough, traced: false},
	{workers: 8, chaos: chaosFlaky, guarded: true, compressed: false, kill: killExplore, traced: false},
	{workers: 8, chaos: chaosFlaky, guarded: false, compressed: true, kill: runThrough, traced: true},
	{workers: 8, chaos: chaosOff, guarded: true, compressed: true, kill: runThrough, traced: false},
	{workers: 1, chaos: chaosFlaky, guarded: false, compressed: true, kill: killFactory, traced: true},
	{workers: 1, chaos: chaosOffPlan, guarded: true, compressed: false, kill: killBlocked, traced: true},
}

// Session shape shared by every run: short enough for Tier-1, long enough
// that every reference reaches DDPG exploration.
const (
	invBudget       = 3 * time.Hour
	invClones       = 3
	invSeed         = 5
	invSampleTarget = 24
)

// invariantRequest is the session request a case runs, without sinks or
// checkpointing.
func invariantRequest(c invariantCase) tuner.Request {
	req := tuner.Request{Workload: workload.TPCC(), Budget: invBudget, Clones: invClones, Seed: invSeed}
	if c.compressed {
		// Exactly what hunter-tune -workload production -compress runs.
		req.Workload = workload.CompressProduction().Profile
		req.Eval = &tuner.EvalOptions{DedupWaves: true, WarmStateDeltas: true}
	}
	switch c.chaos {
	case chaosOffPlan:
		req.Chaos = &chaos.Plan{Seed: 7, Profile: chaos.Off()}
	case chaosFlaky:
		req.Chaos = &chaos.Plan{Seed: 7, Profile: chaos.Flaky()}
	}
	if c.guarded {
		// The SLO arms the gate's p99 check. The compressed production
		// kernel runs at p99 of roughly 700–900 ms, so a tighter ceiling
		// would block every deploy there and leave the guard unexercised.
		req.Safety = &safety.Options{Guardrails: true, SLOP99Ms: 1000}
	}
	return req
}

// driftEvents is the guarded sessions' drift stream: diurnal, one period
// across the budget, four events, seeded with the session seed.
func driftEvents(t *testing.T, req tuner.Request) []workload.DriftEvent {
	t.Helper()
	events, err := workload.GenerateStream(req.Workload, workload.StreamSpec{
		Kind: workload.StreamDiurnal, Period: req.Budget, Events: 4, Seed: req.Seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return events
}

// legOutcome is what one session leg leaves for the invariants.
type legOutcome struct {
	err     error
	digest  string // empty for a killed leg
	trace   []byte // virtual trace bytes, traced legs only
	spans   []traceSpan
	phase   string // algorithm phase the leg ended in
	pcaDim  int
	faults  int64
	drifted bool
	safety  *tuner.SafetyReport
}

// runLeg runs one session of case c to its end, or to the policy's stop
// wave. With resume set it continues the snapshot in policy.Dir with a
// fresh recorder and registry, as a restarted process would. It checks the
// per-leg invariants: exact accounting, no leaked instances and the guard
// evidence of every online deployment.
func runLeg(t *testing.T, c invariantCase, policy *tuner.CheckpointPolicy, resume bool) legOutcome {
	t.Helper()
	defer parallel.SetWorkers(parallel.SetWorkers(c.workers))
	req := invariantRequest(c)
	req.Checkpoint = policy
	var rec *telemetry.Recorder
	if c.traced {
		rec = telemetry.New()
		req.Recorder, req.Status = rec, obsv.NewRegistry()
	}
	h := core.New(core.Options{SampleTarget: invSampleTarget})
	var (
		s   *tuner.Session
		out legOutcome
	)
	if resume {
		var f *checkpoint.File
		var err error
		s, f, err = tuner.ResumeSession(context.Background(), req, filepath.Join(policy.Dir, tuner.CheckpointFileName))
		if err != nil {
			t.Fatalf("%v: resume: %v", c, err)
		}
		if c.guarded {
			if err := s.VerifyScheduledDrifts(driftEvents(t, req)); err != nil {
				t.Fatalf("%v: %v", c, err)
			}
		}
		out.err = h.ResumeTune(s, f)
	} else {
		var err error
		if s, err = tuner.NewSession(req); err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		if c.guarded {
			for _, ev := range driftEvents(t, req) {
				if err := s.ScheduleDrift(ev.At, ev.Profile); err != nil {
					t.Fatal(err)
				}
			}
		}
		out.err = h.Tune(s)
	}
	out.phase = s.Status(false).Phase
	out.safety = s.Safety()
	out.drifted = s.Drifted()
	out.pcaDim = h.PCADim()
	if r := s.Resilience(); r != nil {
		out.faults = r.Injected.Total()
	}
	if out.err == nil {
		out.digest = sessionDigest(t, s, h)
	}
	s.Close()

	if n := s.Provider.ActiveCount(); n != 0 {
		t.Errorf("%v: %d instance(s) still active after Close", c, n)
	}
	if rec != nil {
		if got, want := s.Trace.Accounted(), s.Elapsed(); got != want {
			t.Errorf("%v: trace accounts %v of %v elapsed", c, got, want)
		}
		var b bytes.Buffer
		if err := rec.WriteTraceVirtual(&b); err != nil {
			t.Fatal(err)
		}
		out.trace = b.Bytes()
		out.spans = parseSpans(t, out.trace)
		if c.guarded {
			checkGuardEvidence(t, c, out.spans, req.Safety.WithDefaults())
		}
	}
	return out
}

// sessionDigest renders everything a run determines: position, baseline,
// every pooled sample, the curve, the fault and safety tallies, the
// deployed-config timeline and final deployment, the phase artifacts, and
// the next draw from the session RNG.
func sessionDigest(t *testing.T, s *tuner.Session, h *core.Hunter) string {
	t.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, "steps %d waves %d elapsed %d default %+v\n", s.Steps(), s.WaveCount(), s.Elapsed(), s.DefaultPerf)
	for _, smp := range s.Pool.All() {
		fmt.Fprintf(&b, "sample %d t=%d %+v %s\n", smp.Step, smp.Time, smp.Perf, smp.Knobs.Key())
	}
	for _, p := range s.Curve() {
		fmt.Fprintf(&b, "curve %+v\n", p)
	}
	if r := s.Resilience(); r != nil {
		fmt.Fprintf(&b, "resilience %+v\n", *r)
	}
	if r := s.Safety(); r != nil {
		fmt.Fprintf(&b, "safety %+v\n", *r)
	}
	for _, p := range s.DeployedTimeline() {
		fmt.Fprintf(&b, "monitor %+v\n", p)
	}
	if cfg, perf, fit, ok := s.OnlineDeployed(); ok {
		fmt.Fprintf(&b, "online-deployed %s %+v %v\n", cfg.Key(), perf, fit)
	} else {
		best, err := s.DeployBest()
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "deployed %s %+v\n", best.Knobs.Key(), best.Perf)
	}
	fmt.Fprintf(&b, "pca %d top %v reused %v next-rng %d\n", h.PCADim(), h.TopKnobs(), h.Reused(), s.RNG.Int63())
	return b.String()
}

// traceSpan is one span line of a virtual trace.
type traceSpan struct {
	Cat    string             `json:"cat"`
	Name   string             `json:"name"`
	VStart float64            `json:"v_start_us"`
	VDur   float64            `json:"v_dur_us"`
	Attrs  map[string]float64 `json:"attrs"`
}

func parseSpans(t *testing.T, trace []byte) []traceSpan {
	t.Helper()
	var spans []traceSpan
	for _, line := range bytes.Split(bytes.TrimSpace(trace), []byte("\n")) {
		var rec struct {
			Type string `json:"type"`
			traceSpan
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("trace line %q: %v", line, err)
		}
		if rec.Type == "span" {
			spans = append(spans, rec.traceSpan)
		}
	}
	return spans
}

// checkGuardEvidence asserts that every online deployment cleared the gate
// it passed: canary median TPS at least baseline × (1 − Margin), and p99
// within the SLO when one is set.
func checkGuardEvidence(t *testing.T, c invariantCase, spans []traceSpan, opts safety.Options) {
	t.Helper()
	for _, sp := range spans {
		if sp.Cat != telemetry.CatEvent || sp.Name != "online_deploy" {
			continue
		}
		tps, ok1 := sp.Attrs["tps"]
		p99, ok2 := sp.Attrs["p99_ms"]
		base, ok3 := sp.Attrs["baseline_tps"]
		if !ok1 || !ok2 || !ok3 {
			t.Errorf("%v: online_deploy at %.0fus carries no gate evidence: %v", c, sp.VStart, sp.Attrs)
			continue
		}
		if tps < base*(1-opts.Margin) {
			t.Errorf("%v: deployed %.3f tps below baseline %.3f minus margin %g", c, tps, base, opts.Margin)
		}
		if opts.SLOP99Ms > 0 && p99 > opts.SLOP99Ms {
			t.Errorf("%v: deployed p99 %.3f ms above the %g ms SLO", c, p99, opts.SLOP99Ms)
		}
	}
}

// killWave reads from a reference trace the wave a row's kill lands at:
// about the middle wave of the first sample-factory or DDPG-exploration
// span, or the wave that ended just before the first guardrail block.
func killWave(t *testing.T, ref legOutcome, kill killPoint) int {
	t.Helper()
	var waves []traceSpan
	phases := map[string]traceSpan{}
	wavesBefore := map[string]int{} // event name → waves completed before its first firing
	for _, sp := range ref.spans {
		switch sp.Cat {
		case telemetry.CatStep:
			if sp.Name == "stress_wave" {
				waves = append(waves, sp)
			}
		case telemetry.CatPhase:
			if _, ok := phases[sp.Name]; !ok {
				phases[sp.Name] = sp
			}
		case telemetry.CatEvent:
			if _, ok := wavesBefore[sp.Name]; !ok {
				wavesBefore[sp.Name] = len(waves)
			}
		}
	}
	switch kill {
	case killFactory, killExplore:
		name := map[killPoint]string{killFactory: "sample_factory", killExplore: "ddpg_explore"}[kill]
		ph, ok := phases[name]
		if !ok {
			t.Fatalf("reference trace has no %s span", name)
		}
		var inside []int
		for i, w := range waves {
			if w.VStart >= ph.VStart && w.VStart+w.VDur <= ph.VStart+ph.VDur {
				inside = append(inside, i+1)
			}
		}
		if len(inside) < 3 {
			t.Fatalf("reference %s span holds %d wave(s); too few to kill inside it", name, len(inside))
		}
		// The middle wave, moved off the online loop's monitor cadence so a
		// guarded kill lands between two probes and the cadence counters
		// the checkpoint restores are non-zero.
		i := len(inside) / 2
		if inside[i]%safety.MonitorEvery == 0 {
			i++
		}
		return inside[i]
	case killBlocked:
		block, ok1 := wavesBefore["guardrail_block"]
		rollback, ok2 := wavesBefore["rollback"]
		if !ok1 || !ok2 || block >= rollback || block == 0 {
			t.Fatalf("reference has no wave between its first block (%v, wave %d) and first rollback (%v, wave %d)",
				ok1, block, ok2, rollback)
		}
		return block
	}
	t.Fatalf("no kill wave for %v", kill)
	return 0
}

// runRow runs a row, killing and resuming it when its K level says so,
// and checks that a killed leg stopped where the row names.
func runRow(t *testing.T, row invariantCase, ref legOutcome) legOutcome {
	t.Helper()
	if row.kill == runThrough {
		out := runLeg(t, row, nil, false)
		if out.err != nil {
			t.Fatalf("%v: %v", row, out.err)
		}
		return out
	}
	wave := killWave(t, ref, row.kill)
	policy := &tuner.CheckpointPolicy{Dir: t.TempDir(), StopAfterWaves: wave}
	killed := runLeg(t, row, policy, false)
	if !errors.Is(killed.err, tuner.ErrStopRequested) {
		t.Fatalf("%v: killed leg at wave %d returned %v, want ErrStopRequested", row, wave, killed.err)
	}
	switch row.kill {
	case killFactory:
		if killed.phase != "sample_factory" {
			t.Errorf("%v: killed in phase %q, want sample_factory", row, killed.phase)
		}
	case killExplore:
		if killed.phase != "ddpg_explore" {
			t.Errorf("%v: killed in phase %q, want ddpg_explore", row, killed.phase)
		}
	case killBlocked:
		if r := killed.safety; r == nil || r.Blocks < 1 || r.Rollbacks != 0 {
			t.Errorf("%v: kill at wave %d is not between the first block and the first rollback: %+v", row, wave, r)
		}
	}
	policy.StopAfterWaves = 0
	out := runLeg(t, row, policy, true)
	if out.err != nil {
		t.Fatalf("%v: resumed leg: %v", row, out.err)
	}
	return out
}

// checkReference asserts that every mode a reference arms did something.
func checkReference(t *testing.T, ref invariantCase, out legOutcome, needRollback bool) {
	t.Helper()
	if out.err != nil {
		t.Fatalf("reference %v: %v", ref, out.err)
	}
	if out.pcaDim == 0 {
		t.Errorf("reference %v never reached DDPG exploration", ref)
	}
	if ref.chaos == chaosFlaky && out.faults == 0 {
		t.Errorf("reference %v injected no faults", ref)
	}
	if ref.guarded {
		r := out.safety
		if !out.drifted || r == nil || r.Deploys == 0 || r.Blocks == 0 {
			t.Errorf("reference %v: drifted %v, safety %+v; want a fired drift, a deploy and a block", ref, out.drifted, r)
		}
		if needRollback && (r == nil || r.Rollbacks == 0) {
			t.Errorf("reference %v never rolled back", ref)
		}
	}
}

// checkCovering asserts that the rows cover every pair of levels of any
// two factors: 15 factor pairs × 4 level combinations = 60 pairs.
func checkCovering(t *testing.T, rows []invariantCase) {
	t.Helper()
	covered := 0
	for a := range factorNames {
		for b := a + 1; b < len(factorNames); b++ {
			for _, la := range []bool{false, true} {
				for _, lb := range []bool{false, true} {
					found := false
					for _, r := range rows {
						lv := r.levels()
						found = found || (lv[a] == la && lv[b] == lb)
					}
					if !found {
						t.Errorf("no row has %s=%v with %s=%v", factorNames[a], la, factorNames[b], lb)
						continue
					}
					covered++
				}
			}
		}
	}
	if covered != 60 {
		t.Errorf("rows cover %d of 60 level pairs", covered)
	}
	for _, r := range rows {
		if r == r.reference() {
			t.Errorf("row %v is its own reference and tests nothing", r)
		}
	}
}

// firstDiff returns the first line where two digests differ.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  reference: %s\n  row:       %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("lengths %d vs %d lines", len(al), len(bl))
}

// TestInvariants runs the covering array. In every row and reference it
// checks: (1) the row's digest equals its reference's; (2) traced rows
// write the reference's virtual trace byte for byte; (3) step charges sum
// exactly to elapsed virtual time; (4) Close leaves no instance active;
// (5) every online deployment cleared its gate; (6) every armed mode
// did something, and every killed leg stopped where its row says.
func TestInvariants(t *testing.T) {
	checkCovering(t, invariantRows)
	if testing.Short() {
		t.Skip("runs tuning sessions")
	}
	refs := map[invariantCase]legOutcome{}
	for _, row := range invariantRows {
		row := row
		ref := row.reference()
		if _, ok := refs[ref]; !ok {
			out := runLeg(t, ref, nil, false)
			checkReference(t, ref, out, row.kill == killBlocked)
			refs[ref] = out
		}
		t.Run(row.String(), func(t *testing.T) {
			want := refs[ref]
			got := runRow(t, row, want)
			if got.digest != want.digest {
				t.Errorf("digest differs from reference %v at %s", ref, firstDiff(want.digest, got.digest))
			}
			if row.traced && !bytes.Equal(got.trace, want.trace) {
				t.Errorf("virtual trace differs from reference %v (%d vs %d bytes)", ref, len(got.trace), len(want.trace))
			}
		})
	}
}
