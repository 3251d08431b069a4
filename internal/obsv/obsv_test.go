package obsv

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/hunter-cdb/hunter/internal/telemetry"
	"github.com/hunter-cdb/hunter/internal/tuner"
	"github.com/hunter-cdb/hunter/internal/workload"
)

func TestRegistry(t *testing.T) {
	g := NewRegistry()
	if got := g.Sessions(); len(got) != 0 {
		t.Fatalf("empty registry lists %d sessions", len(got))
	}
	g.PublishStatus(tuner.SessionStatus{}) // no key: dropped
	if got := g.Sessions(); len(got) != 0 {
		t.Fatalf("keyless status was registered")
	}
	g.PublishStatus(tuner.SessionStatus{Key: "a#1", Name: "a", Wave: 1})
	g.PublishStatus(tuner.SessionStatus{Key: "b#2", Name: "b", Wave: 5})
	g.PublishStatus(tuner.SessionStatus{Key: "a#1", Name: "a", Wave: 3}) // update in place
	got := g.Sessions()
	if len(got) != 2 {
		t.Fatalf("got %d sessions, want 2", len(got))
	}
	if got[0].Key != "a#1" || got[0].Wave != 3 || got[1].Key != "b#2" {
		t.Fatalf("registry order/update wrong: %+v", got)
	}
	st, ok := g.Session("b#2")
	if !ok || st.Wave != 5 {
		t.Fatalf("lookup wrong: %+v %v", st, ok)
	}
	g.PublishStatus(tuner.SessionStatus{Key: "b#2", Name: "b", Done: true})
	act := g.Active()
	if len(act) != 1 || act[0].Key != "a#1" {
		t.Fatalf("active view wrong: %+v", act)
	}
}

func newTestServer(t *testing.T) (*Server, *telemetry.Recorder, *Registry) {
	t.Helper()
	rec := telemetry.New()
	reg := NewRegistry()
	s := NewServer(rec, reg)
	s.pollEvery = 5 * time.Millisecond
	return s, rec, reg
}

func TestEndpoints(t *testing.T) {
	s, rec, reg := newTestServer(t)
	rec.Counter("tuner.stress_waves").Add(7)
	rec.Histogram("tuner.wave_seconds").Observe(3 * time.Second)
	st := rec.Session("mysql/tpcc", nil)
	st.Event("best_improved", telemetry.A("fitness", 0.25))
	reg.PublishStatus(tuner.SessionStatus{Key: "mysql/tpcc#1", Name: "mysql/tpcc", Phase: "sample_factory", Wave: 4})

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, body := get("/"); code != 200 || !strings.Contains(body, "/metrics") {
		t.Fatalf("index: %d %q", code, body)
	}
	if code, _ := get("/nope"); code != 404 {
		t.Fatalf("unknown path served %d, want 404", code)
	}

	code, body := get("/metrics")
	if code != 200 {
		t.Fatalf("/metrics: %d", code)
	}
	for _, want := range []string{"tuner.stress_waves 7", "tuner.wave_seconds_count 1", "# histograms"} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}

	code, body = get("/status")
	if code != 200 {
		t.Fatalf("/status: %d %s", code, body)
	}
	var got tuner.SessionStatus
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatalf("/status not JSON: %v\n%s", err, body)
	}
	if got.Key != "mysql/tpcc#1" || got.Phase != "sample_factory" || got.Wave != 4 {
		t.Fatalf("/status wrong: %+v", got)
	}
	if code, _ := get("/status?key=absent"); code != 404 {
		t.Fatalf("/status?key=absent should 404")
	}
	if code, body := get("/status?key=mysql/tpcc%231"); code != 200 || !strings.Contains(body, "sample_factory") {
		t.Fatalf("/status?key=: %d %s", code, body)
	}

	code, body = get("/sessions")
	if code != 200 {
		t.Fatalf("/sessions: %d", code)
	}
	var payload struct {
		Schema   string                `json:"schema"`
		Sessions []tuner.SessionStatus `json:"sessions"`
	}
	if err := json.Unmarshal([]byte(body), &payload); err != nil {
		t.Fatalf("/sessions not JSON: %v", err)
	}
	if payload.Schema != StatusSchema || len(payload.Sessions) != 1 {
		t.Fatalf("/sessions wrong: %+v", payload)
	}

	// JSONL dump mode.
	code, body = get("/events?follow=0")
	if code != 200 {
		t.Fatalf("/events?follow=0: %d", code)
	}
	var ev telemetry.EventView
	if err := json.Unmarshal([]byte(strings.TrimSpace(body)), &ev); err != nil {
		t.Fatalf("/events dump not JSONL: %v\n%s", err, body)
	}
	if ev.Name != "best_improved" || ev.Attrs["fitness"] != 0.25 {
		t.Fatalf("event wrong: %+v", ev)
	}
}

func TestStatusBeforeAnySession(t *testing.T) {
	s, _, _ := newTestServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("/status with no sessions: %d, want 404", resp.StatusCode)
	}
}

func TestEventsSSEFollow(t *testing.T) {
	s, rec, _ := newTestServer(t)
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	st := rec.Session("mysql/tpcc", nil)
	st.Event("workload_drift")

	resp, err := http.Get("http://" + addr + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	deadline := time.After(5 * time.Second)
	lines := make(chan string, 16)
	go func() {
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	want := []string{"event: workload_drift", "event: best_improved"}
	// A second event recorded while the stream is live must arrive too.
	st.Event("best_improved", telemetry.A("fitness", 1))
	for _, expect := range want {
		for {
			select {
			case line, ok := <-lines:
				if !ok {
					t.Fatalf("stream closed before %q", expect)
				}
				if line == expect {
					goto next
				}
			case <-deadline:
				t.Fatalf("timed out waiting for %q", expect)
			}
		}
	next:
	}
}

// TestServingPassivity is the serving-identity contract: a full tuning
// session run with a live server scraping it must produce exactly the same
// results as an unobserved run. While the served run is still up, the
// endpoints must answer with its real data.
func TestServingPassivity(t *testing.T) {
	run := func(serve bool) (tuner.Curve, string) {
		req := tuner.Request{
			Workload: workload.TPCC(),
			Budget:   2 * time.Hour,
			Clones:   2,
			Seed:     42,
		}
		var srv *Server
		var stop chan struct{}
		if serve {
			rec := telemetry.New()
			reg := NewRegistry()
			req.Recorder = rec
			req.Status = reg
			srv = NewServer(rec, reg)
			srv.pollEvery = time.Millisecond
			addr, err := srv.Start("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			// Hammer every endpoint while the session runs.
			stop = make(chan struct{})
			go func() {
				for {
					select {
					case <-stop:
						return
					default:
					}
					for _, p := range []string{"/metrics", "/status", "/sessions", "/events?follow=0"} {
						resp, err := http.Get("http://" + addr + p)
						if err == nil {
							io.Copy(io.Discard, resp.Body) //nolint:errcheck
							resp.Body.Close()
						}
					}
				}
			}()
		}
		s, err := tuner.NewSession(req)
		if err != nil {
			t.Fatal(err)
		}
		for !s.Exhausted() {
			batch := make([][]float64, len(s.Clones))
			for i := range batch {
				batch[i] = s.Space.Random(s.RNG)
			}
			if _, err := s.EvaluateBatch(batch); err != nil {
				break
			}
		}
		if serve {
			for path, want := range map[string][]string{
				"/metrics":  {"tuner.stress_waves", "tuner.wave_seconds_count"},
				"/status":   {`"phase"`},
				"/sessions": {"hunter-status/v1"},
			} {
				resp, err := http.Get("http://" + srv.Addr() + path)
				if err != nil {
					t.Fatal(err)
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				for _, w := range want {
					if !strings.Contains(string(body), w) {
						t.Errorf("%s of a live run lacks %q:\n%s", path, w, body)
					}
				}
			}
		}
		best, _ := s.Best()
		s.Close()
		if stop != nil {
			close(stop)
		}
		return s.Curve(), fmt.Sprintf("%.9f/%d", best.Perf.ThroughputTPS, best.Step)
	}

	plainCurve, plainBest := run(false)
	servedCurve, servedBest := run(true)
	if plainBest != servedBest {
		t.Fatalf("serving changed the best sample: %s vs %s", plainBest, servedBest)
	}
	if len(plainCurve) != len(servedCurve) {
		t.Fatalf("serving changed the curve: %d vs %d points", len(plainCurve), len(servedCurve))
	}
	for i := range plainCurve {
		if plainCurve[i] != servedCurve[i] {
			t.Fatalf("curve point %d diverged: %+v vs %+v", i, plainCurve[i], servedCurve[i])
		}
	}
}

// TestSessionsSortedByKey pins the /sessions ordering contract: the
// listing is sorted by session key no matter which order a concurrent
// fleet registered the sessions in.
func TestSessionsSortedByKey(t *testing.T) {
	g := NewRegistry()
	for _, key := range []string{"t/0007#3", "t/0001#9", "t/0099#1", "t/0002#4"} {
		g.PublishStatus(tuner.SessionStatus{Key: key, Name: key})
	}
	got := g.Sessions()
	want := []string{"t/0001#9", "t/0002#4", "t/0007#3", "t/0099#1"}
	if len(got) != len(want) {
		t.Fatalf("got %d sessions, want %d", len(got), len(want))
	}
	for i, key := range want {
		if got[i].Key != key {
			t.Fatalf("Sessions()[%d].Key = %q, want %q (full: %+v)", i, got[i].Key, key, got)
		}
	}
	// Latest follows registration order, not sort order.
	st, ok := g.Latest()
	if !ok || st.Key != "t/0002#4" {
		t.Fatalf("Latest() = %+v, %v; want the last-registered key t/0002#4", st, ok)
	}
	if _, ok := NewRegistry().Latest(); ok {
		t.Fatal("Latest() on an empty registry reported ok")
	}
}
