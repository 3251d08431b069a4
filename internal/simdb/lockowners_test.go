package simdb

import (
	"testing"

	"github.com/hunter-cdb/hunter/internal/sim"
)

// checkOwners compares every key of the universe between the table and the
// reference map.
func checkOwners(t *testing.T, o *lockOwners, ref map[uint64]int, universe []uint64) {
	t.Helper()
	if o.n != len(ref) {
		t.Fatalf("table holds %d entries, map %d", o.n, len(ref))
	}
	for _, k := range universe {
		got, ok := o.get(k)
		want, wok := ref[k]
		if ok != wok || (ok && got != want) {
			t.Fatalf("get(%d) = (%d, %v), map has (%d, %v)", k, got, ok, want, wok)
		}
	}
}

// TestLockOwnersMatchesMap drives random get/put/del sequences against a Go
// map over the engine's two key ranges (hot keys below the hot-set size,
// cold keys at or above 1<<32), including sequences that fill the table to
// its sizing bound and drain it again, across resets that reuse the slots.
func TestLockOwnersMatchesMap(t *testing.T) {
	rng := sim.NewRNG(17)
	var o lockOwners
	for trial := 0; trial < 200; trial++ {
		keys := 1 + rng.Intn(300)
		hotSet := int64(1 + rng.Intn(64))
		universe := make([]uint64, 0, keys)
		for i := 0; i < keys; i++ {
			if rng.Float64() < 0.3 {
				universe = append(universe, uint64(rng.Int63n(hotSet)))
			} else {
				universe = append(universe, uint64(rng.Int63n(1<<31))+1<<32)
			}
		}
		o.reset(keys)
		ref := make(map[uint64]int)
		// Random mix of operations; puts only ever target keys of this
		// batch, so the table never exceeds the count it was sized for.
		for op := 0; op < 4*keys; op++ {
			k := universe[rng.Intn(len(universe))]
			switch rng.Intn(3) {
			case 0:
				txn := rng.Intn(256)
				o.put(k, txn)
				ref[k] = txn
			case 1:
				o.del(k)
				delete(ref, k)
			default:
				got, ok := o.get(k)
				want, wok := ref[k]
				if ok != wok || (ok && got != want) {
					t.Fatalf("trial %d: get(%d) = (%d, %v), map has (%d, %v)", trial, k, got, ok, want, wok)
				}
			}
		}
		checkOwners(t, &o, ref, universe)
		// Fill with every key, then drain in a shuffled order.
		for i, k := range universe {
			o.put(k, i%256)
			ref[k] = i % 256
		}
		checkOwners(t, &o, ref, universe)
		for _, i := range rng.Perm(len(universe)) {
			o.del(universe[i])
			delete(ref, universe[i])
			if i%7 == 0 {
				checkOwners(t, &o, ref, universe)
			}
		}
		checkOwners(t, &o, ref, universe)
		if trial%3 == 0 { // leave entries behind for the next reset to clear
			for _, k := range universe[:len(universe)/2] {
				o.put(k, 1)
			}
		}
	}
}

// TestLockOwnersGrowsPastSizing: a table sized for fewer keys than it is
// given grows instead of filling up.
func TestLockOwnersGrowsPastSizing(t *testing.T) {
	var o lockOwners
	o.reset(1)
	ref := make(map[uint64]int)
	var universe []uint64
	for i := 0; i < 1000; i++ {
		k := uint64(i)*7919 + 1<<32
		universe = append(universe, k)
		o.put(k, i)
		ref[k] = i
	}
	checkOwners(t, &o, ref, universe)
	if 2*o.n > len(o.slots) {
		t.Fatalf("load %d/%d above one half", o.n, len(o.slots))
	}
}
