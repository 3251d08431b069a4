// Quickstart: tune a simulated MySQL cloud database for TPC-C with one
// cloned instance and print the recommendation. Everything — the database,
// the workload, the cloud control plane — is simulated under a virtual
// clock, so the "12 hours" of tuning complete in seconds.
package main

import (
	"fmt"
	"log"
	"time"

	"github.com/hunter-cdb/hunter"
)

func main() {
	res, err := hunter.Tune(hunter.Request{
		Dialect:  hunter.MySQL,
		Workload: hunter.TPCC(),
		Budget:   12 * time.Hour, // virtual time
		Clones:   1,
		Seed:     1,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("default config:     %6.0f txn/min, p95 %6.1f ms\n",
		res.DefaultPerf.TPM(), res.DefaultPerf.P95LatencyMs)
	fmt.Printf("recommended config: %6.0f txn/min, p95 %6.1f ms\n",
		res.BestPerf.TPM(), res.BestPerf.P95LatencyMs)
	fmt.Printf("fitness %.3f after %d stress tests; recommendation found at %.1f h\n\n",
		res.Fitness, res.Steps, res.RecommendationTime.Hours())

	fmt.Printf("the Search Space Optimizer compressed 63 metrics to %d components\n", res.CompressedStateDim)
	fmt.Printf("and sifted the knobs down to %d key ones, e.g.:\n", len(res.TopKnobs))
	for i, name := range res.TopKnobs {
		if i >= 5 {
			break
		}
		fmt.Printf("  %-36s = %g\n", name, res.Best[name])
	}

	fmt.Println("\nbest-so-far trajectory:")
	for _, p := range res.Curve {
		fmt.Printf("  %5.1f h  step %4d  %6.0f txn/min\n", p.Time.Hours(), p.Step, p.Perf.TPM())
	}
}
