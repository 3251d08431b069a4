package main

import (
	"bytes"
	"encoding/json"
	"io"
	"testing"
	"time"

	"github.com/hunter-cdb/hunter/internal/fleet"
	"github.com/hunter-cdb/hunter/internal/telemetry"
)

// seedTrace records a small trace with every span category and the event
// kinds the timeline overlays.
func seedTrace(tb testing.TB) []byte {
	tb.Helper()
	var now time.Duration
	rec := telemetry.New()
	st := rec.Session("mysql/tpcc", func() time.Duration { return now })
	sp := st.Start("sample_factory")
	for i := 0; i < 3; i++ {
		now += time.Minute
		st.Charge("stress_wave", time.Minute, telemetry.A("configs", 2), telemetry.A("recorded", 1))
		st.Event("actor_crash", telemetry.A("config", 1))
		st.Event("online_deploy", telemetry.A("tps", 900), telemetry.A("baseline_tps", 850))
	}
	sp.End(telemetry.A("pool", 3))
	var b bytes.Buffer
	if err := rec.WriteTrace(&b); err != nil {
		tb.Fatal(err)
	}
	return b.Bytes()
}

// FuzzParseTrace: any bytes either fail to parse or analyze without
// panicking.
func FuzzParseTrace(f *testing.F) {
	valid := seedTrace(f)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte(`{"type":"header","schema":"hunter-trace/v1"}`))
	f.Add([]byte(`{"type":"span","sid":1,"cat":"step","name":"stress_wave","v_start_us":-1e300,"v_dur_us":1e300}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		td, err := parseTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, sid := range td.order {
			printSession(io.Discard, td, sid)
		}
	})
}

// FuzzReportDiff: any pair of documents either fails to decode or diffs
// without panicking, as run reports and as fleet reports.
func FuzzReportDiff(f *testing.F) {
	rep := &telemetry.Report{
		Schema: telemetry.ReportSchema,
		Sessions: []telemetry.SessionReport{{
			ID: 1, Name: "mysql/tpcc", VirtualSeconds: 100,
			StepSeconds: map[string]float64{"stress_wave": 80, "model_update": 20},
		}},
		Counters: map[string]int64{"tuner.stress_waves": 10, "tuner.rollbacks": 1},
	}
	runRep, _ := json.Marshal(rep)
	rep.Sessions[0].StepSeconds["stress_wave"] = 160
	rep.Counters["tuner.rollbacks"] = 3
	grown, _ := json.Marshal(rep)
	fleetRep, _ := json.Marshal(&fleet.Report{
		Schema: fleet.ReportSchema, Tenants: 1, Done: 1,
		TenantResults: []fleet.TenantResult{{ID: 0, Name: "t0000", Status: fleet.StatusDone, Elapsed: time.Hour}},
	})
	f.Add(runRep, grown, 0.01)
	f.Add(fleetRep, fleetRep, 0.0)
	f.Add(runRep, []byte(`{"schema":"hunter-report/v1","sessions":[{"id":1}]}`), -1.0)
	f.Fuzz(func(t *testing.T, base, next []byte, tol float64) {
		var b, n telemetry.Report
		if json.Unmarshal(base, &b) == nil && json.Unmarshal(next, &n) == nil {
			diffReports(&b, &n, tol)
		}
		var fb, fn fleet.Report
		if json.Unmarshal(base, &fb) == nil && json.Unmarshal(next, &fn) == nil {
			diffFleetReports(&fb, &fn, tol)
		}
	})
}
