package tuner

import (
	"fmt"
	"math"
	"sync/atomic"
)

// SessionStatus is a point-in-time view of one tuning session, built for
// the live introspection plane: which algorithm phase is running, how far
// the wave loop has come, the best objective so far, and the fault/repair
// tally when chaos is armed. Every field is computed from session state the
// tuning loop maintains anyway — publishing a status reads no clock,
// consumes no RNG and writes no output, so a status sink can never change
// a result bit.
type SessionStatus struct {
	// Key uniquely identifies the session within the process (the /sessions
	// registry key). It embeds a process-wide sequence number, so it is NOT
	// deterministic across runs — it never appears in experiment output.
	Key  string `json:"key"`
	Name string `json:"name"` // dialect/workload, as in the trace

	Phase   string `json:"phase"` // current algorithm phase ("" before the first)
	Wave    int    `json:"wave"`
	Steps   int    `json:"steps"`
	Samples int    `json:"samples"`
	Clones  int    `json:"clones"` // clones still in service

	VirtualSeconds float64 `json:"virtual_seconds"`
	BudgetSeconds  float64 `json:"budget_seconds"`
	BestFitness    float64 `json:"best_fitness"` // 0 until the first sample scores
	Drifted        bool    `json:"drifted"`
	Done           bool    `json:"done"`

	// Resilience carries the supervisor's fault summary; nil when no chaos
	// plan is armed.
	Resilience *ResilienceReport `json:"resilience,omitempty"`

	// Safety carries the online safety loop's tally; nil when the loop is
	// off.
	Safety *SafetyReport `json:"safety,omitempty"`
}

// StatusSink receives session status updates. Implementations must be safe
// for concurrent use (a process can run many sessions at once) and must
// return quickly: the session publishes synchronously from its tuning
// loop. The obsv package's Registry is the standard implementation.
type StatusSink interface {
	PublishStatus(SessionStatus)
}

// statusSeq numbers sessions process-wide so registry keys stay unique
// when many sessions share a name (the fleet case).
var statusSeq atomic.Int64

// initStatus mints the session's registry key. Called once the session
// name is known, only when a sink is attached.
func (s *Session) initStatus() {
	if s.Req.Status == nil {
		return
	}
	name := fmt.Sprintf("%s/%s", s.Req.Dialect, s.Req.Workload.Name)
	s.statusKey = fmt.Sprintf("%s#%d", name, statusSeq.Add(1))
	s.statusName = name
}

// EnterPhase records that the session entered an algorithm phase (sample
// factory, space optimizer, DDPG exploration, ...) and publishes a status
// update. The phase string is observability-only state: it never feeds
// back into tuning.
func (s *Session) EnterPhase(name string) {
	s.phase = name
	s.publishStatus(false)
}

// Status builds the session's current status view.
func (s *Session) Status(done bool) SessionStatus {
	best := s.run.BestFit
	if math.IsInf(best, 0) || math.IsNaN(best) {
		best = 0
	}
	return SessionStatus{
		Key:            s.statusKey,
		Name:           s.statusName,
		Phase:          s.phase,
		Wave:           s.run.WaveCount,
		Steps:          s.run.Steps,
		Samples:        s.Pool.Len(),
		Clones:         len(s.Clones),
		VirtualSeconds: s.Clock.Now().Seconds(),
		BudgetSeconds:  s.Req.Budget.Seconds(),
		BestFitness:    best,
		Drifted:        s.Drifted(),
		Done:           done,
		Resilience:     s.Resilience(),
		Safety:         s.Safety(),
	}
}

// publishStatus pushes the current view to the request's sink, if any.
func (s *Session) publishStatus(done bool) {
	if s.Req.Status == nil {
		return
	}
	s.Req.Status.PublishStatus(s.Status(done))
}
