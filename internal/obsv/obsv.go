// Package obsv is the live introspection plane: an HTTP server exposing a
// running tuning process's telemetry (Prometheus-style /metrics), session
// status (/status, /sessions) and instant-event stream (/events) without
// ever touching the tuning loop.
//
// The passivity rule of internal/telemetry extends here: every endpoint
// reads a snapshot taken under the recorder's or registry's lock and then
// serializes outside it, so a scrape — however slow the client — can never
// block a tuning goroutine for longer than one snapshot copy, never
// advances a clock, and never consumes an RNG stream. Serving is provably
// invisible: results are identical with and without a live server
// scraping them (TestServingPassivity, and the status-sink factor of
// internal/tuner's TestInvariants, enforce this).
//
// The Registry decouples sessions from the server and is built for many
// concurrent sessions — the multi-tenant fleet daemon of the roadmap will
// register every tenant's session here and serve them all from one
// listener.
package obsv

import (
	"sort"
	"sync"

	"github.com/hunter-cdb/hunter/internal/tuner"
)

// Registry collects live session statuses. It implements tuner.StatusSink;
// sessions publish into it and HTTP handlers read sorted snapshots out of
// it. Safe for concurrent use by any number of sessions and scrapers. The
// zero value is not usable; construct with NewRegistry.
type Registry struct {
	mu       sync.Mutex
	sessions map[string]tuner.SessionStatus
	order    []string // registration order, for stable listings
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{sessions: make(map[string]tuner.SessionStatus)}
}

// PublishStatus stores the latest status for the session's key
// (tuner.StatusSink). Unknown keys register; known keys update in place.
func (g *Registry) PublishStatus(st tuner.SessionStatus) {
	if st.Key == "" {
		return
	}
	g.mu.Lock()
	if _, ok := g.sessions[st.Key]; !ok {
		g.order = append(g.order, st.Key)
	}
	g.sessions[st.Key] = st
	g.mu.Unlock()
}

// Sessions returns every registered session's latest status, sorted by
// session key. Registration order is not used: under a concurrent fleet
// many sessions register in whatever order the scheduler ran them, and
// the listing must look the same however the race went.
func (g *Registry) Sessions() []tuner.SessionStatus {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]tuner.SessionStatus, 0, len(g.sessions))
	for _, st := range g.sessions {
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Latest returns the most recently registered session's status — the
// single-session /status view (sorted order would be wrong there: the
// newest session is wanted, not the lexicographically last).
func (g *Registry) Latest() (tuner.SessionStatus, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.order) == 0 {
		return tuner.SessionStatus{}, false
	}
	return g.sessions[g.order[len(g.order)-1]], true
}

// Session returns the status under key.
func (g *Registry) Session(key string) (tuner.SessionStatus, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	st, ok := g.sessions[key]
	return st, ok
}

// Active returns the statuses of sessions that have not finished, sorted
// by key — the fleet view.
func (g *Registry) Active() []tuner.SessionStatus {
	g.mu.Lock()
	defer g.mu.Unlock()
	var out []tuner.SessionStatus
	for _, st := range g.sessions {
		if !st.Done {
			out = append(out, st)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}
