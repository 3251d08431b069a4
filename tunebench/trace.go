package main

import (
	"sync"
	"time"

	"github.com/hunter-cdb/hunter/internal/telemetry"
	"github.com/hunter-cdb/hunter/internal/tuner"
)

// span is one timed interval of the traced run. Times are offsets from the
// tracer's origin; Parent is -1 for the root.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer records the benchmark's spans around its calls into the program,
// in memory, on the calling goroutine. A nil tracer is the untraced run:
// begin and end do nothing and the program gets no sink and no recorder.
type tracer struct {
	runID  string
	origin time.Time
	spans  []span
	open   []int
	rec    *telemetry.Recorder
	status *statusLog
}

func newTracer(runID string) *tracer {
	origin := time.Now()
	return &tracer{runID: runID, origin: origin, rec: telemetry.New(), status: &statusLog{origin: origin}}
}

// begin opens a span as a child of the innermost open span.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: time.Since(t.origin)})
	t.open = append(t.open, id)
	return id
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = time.Since(t.origin)
	t.open = t.open[:len(t.open)-1]
}

// add records a closed span the benchmark reconstructed from the
// program's observation points.
func (t *tracer) add(parent int, name string, start, end time.Duration) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: start, End: end})
	return id
}

func (t *tracer) sink() tuner.StatusSink {
	if t == nil {
		return nil
	}
	return t.status
}

func (t *tracer) recorder() *telemetry.Recorder {
	if t == nil {
		return nil
	}
	return t.rec
}

// statusEvent is one SessionStatus publish, stamped on arrival.
type statusEvent struct {
	At    time.Duration
	Key   string
	Phase string
	Wave  int
	Steps int
	Done  bool
}

// statusLog is the StatusSink of the traced run: it keeps every publish.
// Fleet tenants publish from several goroutines at once.
type statusLog struct {
	origin time.Time
	mu     sync.Mutex
	events []statusEvent
}

func (l *statusLog) PublishStatus(st tuner.SessionStatus) {
	at := time.Since(l.origin)
	l.mu.Lock()
	l.events = append(l.events, statusEvent{At: at, Key: st.Key, Phase: st.Phase, Wave: st.Wave, Steps: st.Steps, Done: st.Done})
	l.mu.Unlock()
}
