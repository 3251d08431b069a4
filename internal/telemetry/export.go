package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Schema identifiers stamped into exported artifacts so downstream
// tooling can reject traces it does not understand.
const (
	TraceSchema  = "hunter-trace/v1"
	ReportSchema = "hunter-report/v1"
)

// snapshot copies the recorder's spans and session list under the lock so
// exporters can run while sessions are still recording.
func (r *Recorder) snapshot() ([]spanEvent, []*SessionTrace) {
	r.mu.Lock()
	defer r.mu.Unlock()
	spans := make([]spanEvent, len(r.spans))
	copy(spans, r.spans)
	sessions := make([]*SessionTrace, len(r.sessions))
	copy(sessions, r.sessions)
	return spans, sessions
}

// finite maps NaN and ±Inf to 0 so exported JSON is always valid.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// usec renders a duration as fractional microseconds with nanosecond
// precision — the unit both the JSONL trace and Chrome's trace_event
// format use.
func usec(d time.Duration) string {
	return strconv.FormatFloat(float64(d.Nanoseconds())/1e3, 'f', 3, 64)
}

// attrsJSON renders attrs as a JSON object in argument order; empty attrs
// render as "{}".
func attrsJSON(attrs []Attr) string {
	if len(attrs) == 0 {
		return "{}"
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, a := range attrs {
		if i > 0 {
			b.WriteByte(',')
		}
		k, _ := json.Marshal(a.Key)
		b.Write(k)
		b.WriteByte(':')
		b.WriteString(strconv.FormatFloat(finite(a.Value), 'g', -1, 64))
	}
	b.WriteByte('}')
	return b.String()
}

// WriteTrace emits the recorded spans as JSON lines: one header line, one
// line per session, then one line per span in record order. Times are
// microseconds; v_* fields are virtual (simulated) time, w_* fields are
// wall time since the recorder started. The JSONL form is the raw
// archive; WriteChromeTrace renders the same data for trace viewers.
func (r *Recorder) WriteTrace(w io.Writer) error {
	if r == nil {
		return nil
	}
	spans, sessions := r.snapshot()
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, `{"type":"header","schema":%q,"wall_start":%q}`+"\n",
		TraceSchema, r.wallStart.Format(time.RFC3339Nano))
	for _, st := range sessions {
		name, _ := json.Marshal(st.name)
		fmt.Fprintf(bw, `{"type":"session","sid":%d,"name":%s}`+"\n", st.id, name)
	}
	for _, ev := range spans {
		name, _ := json.Marshal(ev.name)
		fmt.Fprintf(bw, `{"type":"span","sid":%d,"cat":%q,"name":%s,"v_start_us":%s,"v_dur_us":%s,"w_start_us":%s,"w_dur_us":%s,"attrs":%s}`+"\n",
			ev.sid, ev.cat, name, usec(ev.vstart), usec(ev.vdur), usec(ev.wstart), usec(ev.wdur), attrsJSON(ev.attrs))
	}
	return bw.Flush()
}

// WriteTraceVirtual emits the same JSONL trace as WriteTrace with every
// wall-clock field removed: no wall_start in the header and no w_* span
// fields. Wall time is machine-specific, so this projection is the one
// that is reproducible — two identically-driven runs (or a run and its
// checkpoint-resumed twin) produce byte-identical output, which is what
// internal/tuner's TestInvariants and the resume tests compare.
func (r *Recorder) WriteTraceVirtual(w io.Writer) error {
	if r == nil {
		return nil
	}
	spans, sessions := r.snapshot()
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, `{"type":"header","schema":%q,"time_base":"virtual"}`+"\n", TraceSchema)
	for _, st := range sessions {
		name, _ := json.Marshal(st.name)
		fmt.Fprintf(bw, `{"type":"session","sid":%d,"name":%s}`+"\n", st.id, name)
	}
	for _, ev := range spans {
		name, _ := json.Marshal(ev.name)
		fmt.Fprintf(bw, `{"type":"span","sid":%d,"cat":%q,"name":%s,"v_start_us":%s,"v_dur_us":%s,"attrs":%s}`+"\n",
			ev.sid, ev.cat, name, usec(ev.vstart), usec(ev.vdur), attrsJSON(ev.attrs))
	}
	return bw.Flush()
}

// WriteChromeTrace renders the spans in Chrome's trace_event JSON format
// (load via chrome://tracing or https://ui.perfetto.dev). The timeline is
// virtual time: each session is one named thread, step and phase spans
// are complete ("X") events, and events are instants ("i"); wall-clock
// offsets travel in the args so both time bases survive the conversion.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	if r == nil {
		return nil
	}
	spans, sessions := r.snapshot()
	bw := bufio.NewWriter(w)
	bw.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`)
	first := true
	emit := func(line string) {
		if !first {
			bw.WriteByte(',')
		}
		first = false
		bw.WriteString("\n")
		bw.WriteString(line)
	}
	emit(`{"ph":"M","pid":1,"name":"process_name","args":{"name":"hunter (virtual time)"}}`)
	for _, st := range sessions {
		name, _ := json.Marshal(fmt.Sprintf("session %d: %s", st.id, st.name))
		emit(fmt.Sprintf(`{"ph":"M","pid":1,"tid":%d,"name":"thread_name","args":{"name":%s}}`, st.id, name))
	}
	for _, ev := range spans {
		name, _ := json.Marshal(ev.name)
		args := attrsJSON(append([]Attr{
			{Key: "wall_start_ms", Value: float64(ev.wstart.Nanoseconds()) / 1e6},
			{Key: "wall_dur_ms", Value: float64(ev.wdur.Nanoseconds()) / 1e6},
		}, ev.attrs...))
		if ev.cat == CatEvent {
			emit(fmt.Sprintf(`{"ph":"i","s":"t","pid":1,"tid":%d,"cat":%q,"name":%s,"ts":%s,"args":%s}`,
				ev.sid, ev.cat, name, usec(ev.vstart), args))
			continue
		}
		emit(fmt.Sprintf(`{"ph":"X","pid":1,"tid":%d,"cat":%q,"name":%s,"ts":%s,"dur":%s,"args":%s}`,
			ev.sid, ev.cat, name, usec(ev.vstart), usec(ev.vdur), args))
	}
	bw.WriteString("\n]}\n")
	return bw.Flush()
}

// WriteText dumps every counter, gauge and histogram as Prometheus-style
// text lines, sorted by name, with section comments — a deterministic
// exposition for humans, scripts and the /metrics endpoint. Histograms
// emit cumulative buckets (le is the bucket's upper bound in seconds)
// followed by _count and _sum_seconds lines.
func (r *Recorder) WriteText(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.cmu.Lock()
	counters := make([]*Counter, 0, len(r.counters))
	for _, c := range r.counters {
		counters = append(counters, c)
	}
	gauges := make([]*Gauge, 0, len(r.gauges))
	for _, g := range r.gauges {
		gauges = append(gauges, g)
	}
	hists := make([]*Histogram, 0, len(r.hists))
	for _, h := range r.hists {
		hists = append(hists, h)
	}
	r.cmu.Unlock()
	sort.Slice(counters, func(i, j int) bool { return counters[i].name < counters[j].name })
	sort.Slice(gauges, func(i, j int) bool { return gauges[i].name < gauges[j].name })
	sort.Slice(hists, func(i, j int) bool { return hists[i].name < hists[j].name })

	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# hunter telemetry exposition (%d counters, %d gauges, %d histograms, %d spans)\n",
		len(counters), len(gauges), len(hists), r.SpanCount())
	fmt.Fprintln(bw, "# counters")
	for _, c := range counters {
		fmt.Fprintf(bw, "%s %d\n", c.name, c.Value())
	}
	fmt.Fprintln(bw, "# gauges")
	for _, g := range gauges {
		fmt.Fprintf(bw, "%s %s\n", g.name, strconv.FormatFloat(finite(g.Value()), 'g', -1, 64))
	}
	if len(hists) > 0 {
		fmt.Fprintln(bw, "# histograms")
		for _, h := range hists {
			for _, b := range h.NonEmptyBuckets() {
				fmt.Fprintf(bw, "%s_bucket{le=%q} %d\n",
					h.name, strconv.FormatFloat(b.Upper.Seconds(), 'g', -1, 64), b.Cumulative)
			}
			fmt.Fprintf(bw, "%s_bucket{le=\"+Inf\"} %d\n", h.name, h.Count())
			fmt.Fprintf(bw, "%s_count %d\n", h.name, h.Count())
			fmt.Fprintf(bw, "%s_sum_seconds %s\n",
				h.name, strconv.FormatFloat(h.Sum().Seconds(), 'g', -1, 64))
		}
	}
	return bw.Flush()
}

// EventView is one instant event in the form the /events stream serves:
// the owning session, the event name, its virtual timestamp and its
// attributes.
type EventView struct {
	Session     int                `json:"sid"`
	SessionName string             `json:"session"`
	Name        string             `json:"name"`
	VirtualUS   float64            `json:"v_us"`
	Attrs       map[string]float64 `json:"attrs,omitempty"`
}

// EventsSince returns the instant events recorded at or after span cursor
// `from` (an opaque position; start from 0) plus the next cursor to poll
// with. The copy happens under the recorder's lock, so a tailing reader
// can never perturb or tear an in-progress run — this is the polling
// primitive behind the introspection server's /events stream.
func (r *Recorder) EventsSince(from int) ([]EventView, int) {
	if r == nil {
		return nil, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if from < 0 {
		from = 0
	}
	names := make(map[int]string, len(r.sessions))
	for _, st := range r.sessions {
		names[st.id] = st.name
	}
	var out []EventView
	for _, ev := range r.spans[min(from, len(r.spans)):] {
		if ev.cat != CatEvent {
			continue
		}
		v := EventView{
			Session:     ev.sid,
			SessionName: names[ev.sid],
			Name:        ev.name,
			VirtualUS:   float64(ev.vstart.Nanoseconds()) / 1e3,
		}
		if len(ev.attrs) > 0 {
			v.Attrs = make(map[string]float64, len(ev.attrs))
			for _, a := range ev.attrs {
				v.Attrs[a.Key] = finite(a.Value)
			}
		}
		out = append(out, v)
	}
	return out, len(r.spans)
}

// Report is the machine-readable summary of one run (report.json).
type Report struct {
	Schema      string                     `json:"schema"`
	WallSeconds float64                    `json:"wall_seconds"`
	Spans       int                        `json:"spans"`
	Sessions    []SessionReport            `json:"sessions"`
	Counters    map[string]int64           `json:"counters"`
	Gauges      map[string]float64         `json:"gauges"`
	Histograms  map[string]HistogramReport `json:"histograms,omitempty"`
}

// HistogramReport summarizes one latency histogram: observation count,
// total/min/max in seconds, and conservative bucket-bound quantiles. All
// fields are virtual time, so they are deterministic across runs.
type HistogramReport struct {
	Count      int64   `json:"count"`
	SumSeconds float64 `json:"sum_seconds"`
	MinSeconds float64 `json:"min_seconds"`
	MaxSeconds float64 `json:"max_seconds"`
	P50Seconds float64 `json:"p50_seconds"`
	P90Seconds float64 `json:"p90_seconds"`
	P99Seconds float64 `json:"p99_seconds"`
}

// SessionReport summarizes one traced session. StepSeconds breaks the
// session's virtual-clock spend down by step; its values sum to
// VirtualSeconds exactly, which in turn equals the session clock's final
// position when every advance was charged through the trace.
type SessionReport struct {
	ID             int                `json:"id"`
	Name           string             `json:"name"`
	VirtualSeconds float64            `json:"virtual_seconds"`
	StepSeconds    map[string]float64 `json:"step_seconds"`
	Spans          int                `json:"spans"`
	Finished       bool               `json:"finished"`
	Attrs          map[string]float64 `json:"attrs,omitempty"`
}

// Report builds the run summary. Sessions appear in id order; counter and
// gauge maps serialize with sorted keys (encoding/json), so the report is
// deterministic up to its wall-time fields.
func (r *Recorder) Report() *Report {
	rep := &Report{
		Schema:   ReportSchema,
		Sessions: make([]SessionReport, 0),
		Counters: make(map[string]int64),
		Gauges:   make(map[string]float64),
	}
	if r == nil {
		return rep
	}
	spans, sessions := r.snapshot()
	rep.WallSeconds = finite(r.wallOffset().Seconds())
	rep.Spans = len(spans)
	sort.Slice(sessions, func(i, j int) bool { return sessions[i].id < sessions[j].id })
	for _, st := range sessions {
		st.mu.Lock()
		sr := SessionReport{
			ID:             st.id,
			Name:           st.name,
			VirtualSeconds: st.accounted.Seconds(),
			StepSeconds:    make(map[string]float64, len(st.bySt)),
			Spans:          st.spanN,
			Finished:       st.finished,
		}
		for step, d := range st.bySt {
			sr.StepSeconds[step] = d.Seconds()
		}
		if len(st.attrs) > 0 {
			sr.Attrs = make(map[string]float64, len(st.attrs))
			for _, a := range st.attrs {
				sr.Attrs[a.Key] = finite(a.Value)
			}
		}
		st.mu.Unlock()
		rep.Sessions = append(rep.Sessions, sr)
	}
	r.cmu.Lock()
	for name, c := range r.counters {
		rep.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		rep.Gauges[name] = finite(g.Value())
	}
	if len(r.hists) > 0 {
		rep.Histograms = make(map[string]HistogramReport, len(r.hists))
		for name, h := range r.hists {
			rep.Histograms[name] = HistogramReport{
				Count:      h.Count(),
				SumSeconds: h.Sum().Seconds(),
				MinSeconds: h.Min().Seconds(),
				MaxSeconds: h.Max().Seconds(),
				P50Seconds: h.Quantile(0.50).Seconds(),
				P90Seconds: h.Quantile(0.90).Seconds(),
				P99Seconds: h.Quantile(0.99).Seconds(),
			}
		}
	}
	r.cmu.Unlock()
	return rep
}

// WriteReport writes the run summary as indented JSON.
func (r *Recorder) WriteReport(w io.Writer) error {
	if r == nil {
		return nil
	}
	data, err := json.MarshalIndent(r.Report(), "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// WriteFiles is the CLIs' export step: it captures the runtime and
// fork-join gauges, then writes each requested artifact — the span trace
// (Chrome trace_event format when the path ends in .json, JSONL
// otherwise), the counter/gauge exposition and the JSON run report. An
// empty path skips that artifact; a nil recorder writes nothing.
func (r *Recorder) WriteFiles(trace, metrics, report string) error {
	if r == nil {
		return nil
	}
	r.CaptureParallel()
	r.CaptureRuntime()
	emitTrace := r.WriteTrace
	if strings.HasSuffix(trace, ".json") {
		emitTrace = r.WriteChromeTrace
	}
	for _, out := range []struct {
		path string
		emit func(io.Writer) error
	}{{trace, emitTrace}, {metrics, r.WriteText}, {report, r.WriteReport}} {
		if out.path == "" {
			continue
		}
		if err := writeFile(out.path, out.emit); err != nil {
			return err
		}
	}
	return nil
}

// writeFile creates path and fills it with emit.
func writeFile(path string, emit func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := emit(f); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
