package telemetry

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestEmptyRecorderExports covers the fully-degenerate case: an enabled
// recorder that never saw a session, span, counter or gauge must still
// produce valid artifacts from every exporter.
func TestEmptyRecorderExports(t *testing.T) {
	r := New()
	var buf bytes.Buffer
	if err := r.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(buf.String()); strings.Count(got, "\n") != 0 || !strings.Contains(got, TraceSchema) {
		t.Fatalf("empty trace should be the header line only:\n%s", got)
	}
	buf.Reset()
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("empty Chrome trace invalid JSON:\n%s", buf.String())
	}
	buf.Reset()
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "0 counters, 0 gauges, 0 histograms, 0 spans") {
		t.Fatalf("empty exposition header wrong:\n%s", buf.String())
	}
	buf.Reset()
	if err := r.WriteReport(&buf); err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Schema != ReportSchema || len(rep.Sessions) != 0 || len(rep.Histograms) != 0 {
		t.Fatalf("empty report malformed: %+v", rep)
	}
	if events, next := r.EventsSince(0); len(events) != 0 || next != 0 {
		t.Fatalf("empty EventsSince = %v, %d", events, next)
	}
}

// TestNonFiniteEverywhere pushes NaN and ±Inf through every value sink —
// gauges, span attrs, event attrs — and checks each exporter sanitizes
// them via finite() rather than emitting invalid JSON or exposition text.
func TestNonFiniteEverywhere(t *testing.T) {
	r := New()
	r.Gauge("g.nan").Set(nan())
	r.Gauge("g.inf").Set(inf())
	r.Gauge("g.neginf").Set(-inf())
	st := r.Session("s", nil)
	sp := st.Start("phase")
	sp.End(A("inf", inf()))
	st.Event("e", A("neginf", -inf()))
	st.Finish()

	var buf bytes.Buffer
	for name, emit := range map[string]func(*bytes.Buffer) error{
		"trace":  func(b *bytes.Buffer) error { return r.WriteTrace(b) },
		"chrome": func(b *bytes.Buffer) error { return r.WriteChromeTrace(b) },
		"report": func(b *bytes.Buffer) error { return r.WriteReport(b) },
	} {
		buf.Reset()
		if err := emit(&buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, ln := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
			if !json.Valid([]byte(ln)) && !json.Valid(buf.Bytes()) {
				t.Fatalf("%s emitted invalid JSON: %s", name, ln)
			}
		}
		for _, bad := range []string{"NaN", "Inf"} {
			if strings.Contains(buf.String(), bad) {
				t.Fatalf("%s leaked %s:\n%s", name, bad, buf.String())
			}
		}
	}
	buf.Reset()
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	for _, g := range []string{"g.nan 0", "g.inf 0", "g.neginf 0"} {
		if !strings.Contains(buf.String(), g+"\n") {
			t.Fatalf("exposition did not sanitize %q:\n%s", g, buf.String())
		}
	}
	events, _ := r.EventsSince(0)
	if len(events) != 1 || events[0].Attrs["neginf"] != 0 {
		t.Fatalf("EventsSince did not sanitize attrs: %+v", events)
	}
}

// TestExportWithOpenSpans exports while a span is still open: the open
// span is simply absent (it only records on End), exporters stay valid,
// and ending it after the export records it normally.
func TestExportWithOpenSpans(t *testing.T) {
	r := New()
	st := r.Session("s", nil)
	done := st.Start("finished")
	done.End()
	open := st.Start("still_open")

	var buf bytes.Buffer
	if err := r.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "still_open") {
		t.Fatalf("open span leaked into trace:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "finished") {
		t.Fatalf("closed span missing from trace:\n%s", buf.String())
	}
	buf.Reset()
	if err := r.WriteReport(&buf); err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Spans != 1 {
		t.Fatalf("report counts %d spans with one open, want 1", rep.Spans)
	}

	open.End()
	buf.Reset()
	if err := r.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "still_open") {
		t.Fatalf("span ended after export never recorded:\n%s", buf.String())
	}
}

// TestConcurrentRecordAndExport hammers recording (spans, events, charges,
// histogram observes) from several goroutines while exporters run
// concurrently — the -race guarantee that serving /metrics or /events
// mid-run is safe.
func TestConcurrentRecordAndExport(t *testing.T) {
	r := New()
	h := r.Histogram("h.concurrent")
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			st := r.Session("writer", nil)
			for i := 0; i < 200; i++ {
				sp := st.Start("phase")
				st.Charge("step", time.Millisecond)
				st.Event("tick", A("g", float64(g)))
				h.Observe(time.Duration(i) * time.Microsecond)
				r.Counter("c").Add(1)
				sp.End()
			}
			st.Finish()
		}(g)
	}
	var exporter sync.WaitGroup
	exporter.Add(1)
	go func() {
		defer exporter.Done()
		cursor := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			var buf bytes.Buffer
			if err := r.WriteTrace(&buf); err != nil {
				t.Error(err)
				return
			}
			if err := r.WriteText(&buf); err != nil {
				t.Error(err)
				return
			}
			_, cursor = r.EventsSince(cursor)
			r.Report()
		}
	}()
	wg.Wait()
	close(stop)
	exporter.Wait()

	var buf bytes.Buffer
	if err := r.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if h.Count() != 4*200 {
		t.Fatalf("histogram lost observations: %d", h.Count())
	}
}

// TestWriteFiles covers the CLIs' export step: every requested artifact
// lands on disk with the runtime and fork-join gauges captured, a .json
// trace path selects the Chrome format, a nil recorder writes nothing,
// and an unwritable path is an error.
func TestWriteFiles(t *testing.T) {
	dir := t.TempDir()
	read := func(name string) string {
		t.Helper()
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	r := New()
	r.Counter("c").Add(1)
	if err := r.WriteFiles(filepath.Join(dir, "trace.jsonl"), filepath.Join(dir, "metrics.txt"),
		filepath.Join(dir, "report.json")); err != nil {
		t.Fatal(err)
	}
	if got := read("trace.jsonl"); !strings.HasPrefix(got, `{"type":"header"`) {
		t.Fatalf("trace is not JSONL:\n%s", got)
	}
	metrics := read("metrics.txt")
	for _, want := range []string{"\nc 1\n", "\nruntime.goroutines ", "\nparallel.workers "} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("metrics missing %q:\n%s", want, metrics)
		}
	}
	var rep Report
	if err := json.Unmarshal([]byte(read("report.json")), &rep); err != nil || rep.Schema != ReportSchema {
		t.Fatalf("report malformed: %v %+v", err, rep)
	}

	if err := r.WriteFiles(filepath.Join(dir, "trace.json"), "", ""); err != nil {
		t.Fatal(err)
	}
	if got := read("trace.json"); !json.Valid([]byte(got)) || !strings.Contains(got, `"traceEvents"`) {
		t.Fatalf(".json trace is not a Chrome trace:\n%s", got)
	}

	var off *Recorder
	if err := off.WriteFiles(filepath.Join(dir, "nil.jsonl"), filepath.Join(dir, "nil.txt"), ""); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "nil.jsonl")); !os.IsNotExist(err) {
		t.Fatalf("nil recorder wrote a file: %v", err)
	}

	if err := r.WriteFiles("", filepath.Join(dir, "missing", "metrics.txt"), ""); err == nil {
		t.Fatal("unwritable path accepted")
	}
}
