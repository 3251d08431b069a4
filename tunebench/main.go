// Command tunebench is the repository's benchmark: it runs the tuning
// stack on fixed, seeded workloads and prints end-to-end metrics with
// their spread, or, traced, per-layer metrics and a self-time table.
//
//	bash tunebench/run.sh --workload ga-production --seed 1 --seconds 20 --trace 0
//
// It builds its inputs from --seed, runs every tuning in a fresh child
// process, checks the outputs, and prints one JSON object as the last line
// of standard output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

func main() {
	var (
		wl      = flag.String("workload", "", "workload name")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 20, "how long the run measures")
		trace   = flag.Int("trace", 0, "1 runs the traced run and prints per-layer metrics")
		child   = flag.String("child", "", "internal: run one measurement in this process (setup | tune | trace)")
	)
	flag.Parse()
	w, err := workloadByName(*wl)
	if err != nil {
		fatalf("%v", err)
	}
	if *child != "" {
		res, err := childMain(*child, w, *seed, time.Duration(*seconds)*time.Second)
		if err != nil {
			fatalf("%s %s seed %d: %v", *child, w.name, *seed, err)
		}
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			fatalf("%v", err)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fatalf("--trace must be 0 or 1")
	}
	if *seconds < 1 {
		fatalf("--seconds must be positive")
	}
	res, err := orchestrate(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fatalf("%s seed %d: %v", w.name, *seed, err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "tunebench: "+format+"\n", args...)
	os.Exit(1)
}
