package main

import (
	"fmt"
	"io"

	"github.com/hunter-cdb/hunter/internal/checkpoint"
	"github.com/hunter-cdb/hunter/internal/fleet"
	"github.com/hunter-cdb/hunter/internal/tuner"
)

// inspectCheckpoint dumps a checkpoint container's section table (every
// section is CRC-verified by ReadFile) and the resume bookkeeping — a
// single session's wave/clock, or for fleet snapshots (recognized by the
// fleet-meta section) the fleet's round, admission and reuse state.
func inspectCheckpoint(w io.Writer, path string) error {
	f, err := checkpoint.ReadFile(path)
	if err != nil {
		return err
	}
	names := f.Names()
	fmt.Fprintf(w, "checkpoint %s: %d section(s), integrity OK\n", path, len(names))
	fmt.Fprintf(w, "  %-16s %12s\n", "section", "bytes")
	var total int
	for _, name := range names {
		payload, err := f.Bytes(name)
		if err != nil {
			return err
		}
		total += len(payload)
		fmt.Fprintf(w, "  %-16s %12d\n", name, len(payload))
	}
	fmt.Fprintf(w, "  %-16s %12d\n", "(payload total)", total)
	if f.Has("fleet-meta") {
		return inspectFleetCheckpoint(w, path)
	}
	wave, clock, err := tuner.PeekCheckpoint(path)
	if err != nil {
		return fmt.Errorf("reading session bookkeeping: %w", err)
	}
	fmt.Fprintf(w, "  resume point: wave %d, virtual clock %s\n", wave, clock)
	return nil
}

// inspectFleetCheckpoint prints a fleet snapshot's resume bookkeeping.
func inspectFleetCheckpoint(w io.Writer, path string) error {
	info, err := fleet.PeekCheckpoint(path)
	if err != nil {
		return fmt.Errorf("reading fleet bookkeeping: %w", err)
	}
	fmt.Fprintf(w, "  fleet snapshot: %d tenant(s), seed %d, reuse %v\n",
		info.Tenants, info.Seed, info.Reuse)
	fmt.Fprintf(w, "  resume point: round %d, next tenant %d, pool %s\n",
		info.Rounds, info.Next, info.Pool)
	fmt.Fprintf(w, "  progress: done %d  failed %d  tenant results %d\n",
		info.Done, info.Failed, info.Results)
	fmt.Fprintf(w, "  reuse: probes %d  hits %d  stores %d  shared models %d\n",
		info.ReuseProbes, info.ReuseHits, info.ReuseStores, info.StoreModels)
	return nil
}
