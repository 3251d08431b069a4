// Command hunter-inspect is the offline half of the introspection plane:
// it analyzes the artifacts a tuning run leaves behind — trace JSONL files
// (-trace), run reports (-report) and checkpoint files — without needing
// the process that produced them.
//
//	hunter-inspect <file>                  analyze a trace / report / checkpoint
//	hunter-inspect diff [-tol F] A.json B.json   compare two run reports
//
// The file kind is auto-detected: checkpoint container magic, the
// hunter-trace/v1 JSONL header, or a hunter-report/v1 JSON document. For a
// trace it prints per-phase cost attribution (virtual vs. wall), the
// Table-1-style per-step breakdown, and a wave timeline with fault/retry
// overlay. For a checkpoint it dumps the section table and the resume
// bookkeeping. diff compares the deterministic phase totals of two reports
// and exits non-zero when the new run regressed beyond the tolerance — the
// perf-regression gate TestBaselineDiffGate runs against
// examples/baselines/tpcc-2h-report.json.
package main

import (
	"bytes"
	"fmt"
	"os"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	if len(args) == 0 {
		usage()
		return 2
	}
	switch args[0] {
	case "-h", "-help", "--help", "help":
		usage()
		return 0
	case "diff":
		return runDiff(args[1:])
	}
	if len(args) != 1 {
		usage()
		return 2
	}
	path := args[0]
	kind, err := detectKind(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hunter-inspect:", err)
		return 1
	}
	switch kind {
	case kindCheckpoint:
		err = inspectCheckpoint(os.Stdout, path)
	case kindTrace:
		err = inspectTrace(os.Stdout, path)
	case kindReport:
		err = inspectReport(os.Stdout, path)
	case kindFleetReport:
		err = inspectFleetReport(os.Stdout, path)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hunter-inspect:", err)
		return 1
	}
	return 0
}

func usage() {
	fmt.Fprint(os.Stderr, `usage:
  hunter-inspect <file>                        analyze a trace JSONL, report.json or checkpoint
  hunter-inspect diff [-tol F] <base> <new>    compare two report.json files (exit 1 on regression)
`)
}

type fileKind int

const (
	kindCheckpoint fileKind = iota
	kindTrace
	kindReport
	kindFleetReport
)

// detectKind sniffs the artifact type: the checkpoint container magic
// (session and fleet snapshots share it; inspectCheckpoint branches on the
// fleet-meta section), the hunter-trace/v1 JSONL header, or a
// hunter-report/v1 / hunter-fleet-report/v1 JSON document.
func detectKind(path string) (fileKind, error) {
	head := make([]byte, 512)
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	n, _ := f.Read(head)
	f.Close()
	head = head[:n]
	switch {
	case n >= 8 && string(head[:8]) == "HTRCKPT1":
		return kindCheckpoint, nil
	case bytes.Contains(head, []byte(`"hunter-trace/v1"`)):
		return kindTrace, nil
	case bytes.Contains(head, []byte(`"hunter-fleet-report/v1"`)):
		return kindFleetReport, nil
	case bytes.Contains(head, []byte(`"hunter-report/v1"`)):
		return kindReport, nil
	}
	return 0, fmt.Errorf("%s: not a hunter checkpoint, trace or report", path)
}
