package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"github.com/hunter-cdb/hunter/internal/knob"
)

// ReportSchema identifies fleet report JSON documents (hunter-inspect
// sniffs on it).
const ReportSchema = "hunter-fleet-report/v1"

// TenantResult is one tenant's terminal record: how it was admitted, how
// it ran, and what it achieved. It is the unit of report aggregation, and
// a fleet checkpoint carries every recorded result in ID order.
type TenantResult struct {
	ID        int    `json:"id"`
	Name      string `json:"name"`
	Signature string `json:"signature"`
	Seed      int64  `json:"seed"`
	// Status is one of done, failed, rejected, evicted.
	Status string `json:"status"`
	// Round is the scheduling round the tenant ran (or was evicted) in.
	Round int `json:"round"`
	// Budget is the virtual budget actually granted (after clamping).
	Budget  time.Duration `json:"budget_ns"`
	Elapsed time.Duration `json:"elapsed_ns"`
	Steps   int           `json:"steps"`
	Waves   int           `json:"waves"`
	// Target is the tenant's personalized fitness SLO; TargetHit reports
	// whether the session stopped early because it was reached.
	Target    float64 `json:"target"`
	TargetHit bool    `json:"target_hit"`
	Fitness   float64 `json:"fitness"`
	// Reused reports a warm start from the shared store: the session
	// loaded the donor ReuseFrom names as tenant@signature.
	Reused     bool        `json:"reused"`
	ReuseFrom  string      `json:"reuse_from,omitempty"`
	DefaultTPS float64     `json:"default_tps"`
	BestTPS    float64     `json:"best_tps"`
	BestKnobs  knob.Config `json:"best_knobs,omitempty"`
	Err        string      `json:"error,omitempty"`
}

// Report is the fleet's final summary — the daemon's primary output. Every
// field is a deterministic function of the config: rendering it at any
// worker count, or across a kill-and-resume, produces identical bytes.
type Report struct {
	Schema  string `json:"schema"`
	Tenants int    `json:"tenants"`
	Seed    int64  `json:"seed"`
	Reuse   bool   `json:"reuse"`
	Rounds  int    `json:"rounds"`

	Admitted int `json:"admitted"`
	Rejected int `json:"rejected"`
	Evicted  int `json:"evicted"`
	Done     int `json:"done"`
	Failed   int `json:"failed"`

	// ReuseProbes counts the tenants that probed the shared store, and
	// ReuseHits those among them whose session loaded the donor found.
	ReuseProbes  int     `json:"reuse_probes"`
	ReuseHits    int     `json:"reuse_hits"`
	ReuseStores  int     `json:"reuse_stores"`
	ReuseHitRate float64 `json:"reuse_hit_rate"`

	// TotalVirtualSeconds is the summed virtual tuning time of every
	// tenant that ran — the quantity cross-tenant reuse exists to reduce.
	TotalVirtualSeconds float64 `json:"total_virtual_seconds"`
	MeanFitness         float64 `json:"mean_fitness"`
	TargetsHit          int     `json:"targets_hit"`

	TenantResults []TenantResult `json:"tenant_results"`
}

// Report assembles the fleet report from the recorded tenant results, in
// tenant ID order.
func (f *Fleet) Report() *Report {
	r := &Report{
		Schema:  ReportSchema,
		Tenants: len(f.cfg.Tenants),
		Seed:    f.cfg.Seed,
		Reuse:   f.cfg.Reuse,
		Rounds:  f.run.Rounds,

		Admitted:    len(f.admitted),
		ReuseProbes: f.run.ReuseProbes,
		ReuseHits:   f.run.ReuseHits,
		ReuseStores: f.run.ReuseStores,
	}
	r.TenantResults = f.recorded()
	var fitSum float64
	for _, res := range r.TenantResults {
		switch res.Status {
		case StatusDone:
			r.Done++
			fitSum += res.Fitness
			if res.TargetHit {
				r.TargetsHit++
			}
			r.TotalVirtualSeconds += res.Elapsed.Seconds()
		case StatusFailed:
			r.Failed++
			r.TotalVirtualSeconds += res.Elapsed.Seconds()
		case StatusRejected:
			r.Rejected++
		case StatusEvicted:
			r.Evicted++
		}
	}
	if r.Done > 0 {
		r.MeanFitness = fitSum / float64(r.Done)
	}
	if r.ReuseProbes > 0 {
		r.ReuseHitRate = float64(r.ReuseHits) / float64(r.ReuseProbes)
	}
	return r
}

// recorded returns every recorded tenant result in ID order.
func (f *Fleet) recorded() []TenantResult {
	var out []TenantResult
	for _, res := range f.results {
		if res != nil {
			out = append(out, *res)
		}
	}
	return out
}

// Render writes the deterministic text form of the report: a fleet summary
// followed by one line per tenant in ID order. No wall-clock time, worker
// count or map-ordered data appears — the bytes are the determinism
// contract TestDeterminismAcrossWorkers and TestCheckpointKillResume diff
// across worker counts and across kill-and-resume.
func (r *Report) Render(w io.Writer) {
	fmt.Fprintf(w, "fleet report (%s)\n", r.Schema)
	fmt.Fprintf(w, "  tenants %d  seed %d  reuse %v  rounds %d\n", r.Tenants, r.Seed, r.Reuse, r.Rounds)
	fmt.Fprintf(w, "  admitted %d  rejected %d  evicted %d  done %d  failed %d\n",
		r.Admitted, r.Rejected, r.Evicted, r.Done, r.Failed)
	fmt.Fprintf(w, "  reuse: probes %d  hits %d  stores %d  hit rate %.4f\n",
		r.ReuseProbes, r.ReuseHits, r.ReuseStores, r.ReuseHitRate)
	fmt.Fprintf(w, "  total virtual tuning time %.0fs (%.1fh)  mean fitness %.4f  targets hit %d/%d\n",
		r.TotalVirtualSeconds, r.TotalVirtualSeconds/3600, r.MeanFitness, r.TargetsHit, r.Done)
	for i := range r.TenantResults {
		t := &r.TenantResults[i]
		switch t.Status {
		case StatusRejected, StatusEvicted:
			fmt.Fprintf(w, "  %s %-22s %-8s round=%d\n", t.Name, t.Signature, t.Status, t.Round)
		case StatusFailed:
			fmt.Fprintf(w, "  %s %-22s %-8s round=%d err=%s\n", t.Name, t.Signature, t.Status, t.Round, t.Err)
		default:
			mark := " "
			if t.TargetHit {
				mark = "T"
			}
			reuse := "cold"
			if t.Reused {
				reuse = "warm<-" + t.ReuseFrom
			}
			fmt.Fprintf(w, "  %s %-22s %-8s round=%d fit=%.4f target=%.4f%s tps=%.0f/%.0f steps=%d elapsed=%s %s\n",
				t.Name, t.Signature, t.Status, t.Round, t.Fitness, t.Target, mark,
				t.BestTPS, t.DefaultTPS, t.Steps, t.Elapsed, reuse)
		}
	}
}

// WriteJSON writes the report as indented JSON to path.
func (r *Report) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("fleet: encoding report: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("fleet: writing report: %w", err)
	}
	return nil
}
