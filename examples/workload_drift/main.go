// Workload drift (§5, Figure 10): the production workload captured at
// 9:00 drifts to the 21:00 capture mid-run. HUNTER keeps its learned state
// (Shared Pool, Recommender networks) across the drift and bounces back to
// a superior configuration for the new workload quickly — the behaviour
// that lets learning-based tuners handle drift without retuning from
// scratch.
package main

import (
	"fmt"
	"log"
	"time"

	"github.com/hunter-cdb/hunter"
)

func main() {
	driftAt := 12 * time.Hour
	res, err := hunter.Tune(hunter.Request{
		Dialect:  hunter.MySQL,
		Type:     mustType("D"), // the paper's 4-core / 16 GB production host
		Workload: hunter.Production(),
		Drifts:   []hunter.DriftEvent{{At: driftAt, Profile: hunter.ProductionDrifted()}},
		Budget:   24 * time.Hour,
		Clones:   2,
		Seed:     5,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("workload drifts at %.0f h: %s -> %s\n\n",
		driftAt.Hours(), hunter.Production().Name, hunter.ProductionDrifted().Name)
	fmt.Println("best-so-far trajectory (tracking restarts at the drift):")
	for _, p := range res.Curve {
		marker := ""
		if p.Time >= driftAt {
			marker = "  <- post-drift"
		}
		fmt.Printf("  %5.1f h  %7.0f txn/s%s\n", p.Time.Hours(), p.Perf.ThroughputTPS, marker)
	}
	fmt.Printf("\nfinal recommendation for the drifted workload: %.0f txn/s (p95 %.1f ms)\n",
		res.BestPerf.ThroughputTPS, res.BestPerf.P95LatencyMs)
}

func mustType(name string) hunter.InstanceType {
	t, err := hunter.InstanceTypeByName(name)
	if err != nil {
		log.Fatal(err)
	}
	return t
}
