package simdb

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"github.com/hunter-cdb/hunter/internal/sim"
)

func TestLockAcquireGrantAndReentry(t *testing.T) {
	var lt lockTable
	lt.reset(8, 8)
	if lt.acquire(1, 100) != lockGranted {
		t.Fatal("fresh lock should grant")
	}
	if lt.acquire(1, 100) != lockGranted {
		t.Fatal("re-acquiring an owned lock should grant")
	}
	if lt.acquire(2, 100) != lockBlocked {
		t.Fatal("conflicting request should block")
	}
	lt.commit(1)
	if lt.acquire(2, 100) != lockGranted {
		t.Fatal("released lock should grant to the waiter")
	}
}

func TestLockDeadlockTwoTxns(t *testing.T) {
	// Classic crossing: T1 holds A and wants B; T2 holds B and wants A.
	var lt lockTable
	lt.reset(8, 8)
	if lt.acquire(1, 'A') != lockGranted || lt.acquire(2, 'B') != lockGranted {
		t.Fatal("setup grants failed")
	}
	if lt.acquire(1, 'B') != lockBlocked {
		t.Fatal("T1 should block on B")
	}
	if lt.acquire(2, 'A') != lockDeadlock {
		t.Fatal("T2's request closes the cycle: deadlock")
	}
	if _, dl := lt.stats(); dl != 1 {
		t.Fatalf("deadlocks = %d", dl)
	}
	// The victim's locks were released: T1 can now take B.
	if lt.acquire(1, 'B') != lockGranted {
		t.Fatal("victim's locks should be free")
	}
}

func TestLockDeadlockThreeCycle(t *testing.T) {
	var lt lockTable
	lt.reset(8, 8)
	lt.acquire(1, 'A')
	lt.acquire(2, 'B')
	lt.acquire(3, 'C')
	if lt.acquire(1, 'B') != lockBlocked {
		t.Fatal("1→B should block")
	}
	if lt.acquire(2, 'C') != lockBlocked {
		t.Fatal("2→C should block")
	}
	if lt.acquire(3, 'A') != lockDeadlock {
		t.Fatal("3→A closes the 3-cycle")
	}
}

func TestLockNoFalseDeadlock(t *testing.T) {
	// A chain (1 waits on 2, 2 waits on 3) is not a cycle.
	var lt lockTable
	lt.reset(8, 8)
	lt.acquire(3, 'C')
	lt.acquire(2, 'B')
	if lt.acquire(2, 'C') != lockBlocked {
		t.Fatal("2 should block on 3")
	}
	if lt.acquire(1, 'B') != lockBlocked {
		t.Fatal("1 should block on 2 (chain, not cycle)")
	}
	if _, dl := lt.stats(); dl != 0 {
		t.Fatalf("false deadlock: %d", dl)
	}
}

// TestLockReleaseClearsOnlyItsWaiters: a release clears the wait-for edges
// into the releaser, all of them and no others. No lock decision reads a
// cleared edge, so the batch tests cannot see this.
func TestLockReleaseClearsOnlyItsWaiters(t *testing.T) {
	// T0 holds A and T2 holds B; T1 and T4 block on A, T3 on B.
	var lt lockTable
	lt.reset(5, 2)
	if lt.acquire(0, 'A') != lockGranted || lt.acquire(2, 'B') != lockGranted {
		t.Fatal("setup grants failed")
	}
	if lt.acquire(1, 'A') != lockBlocked || lt.acquire(3, 'B') != lockBlocked || lt.acquire(4, 'A') != lockBlocked {
		t.Fatal("T1 and T4 should block on A, T3 on B")
	}
	lt.commit(0)
	for txn, want := range []int{-1, -1, -1, 2, -1} {
		if lt.waitFor[txn] != want {
			t.Errorf("after T0 committed, T%d waits on %d, want %d", txn, lt.waitFor[txn], want)
		}
	}
	if lt.acquire(1, 'A') != lockGranted {
		t.Error("T1 should be granted A once T0 released it")
	}
}

func TestBatchLockSimDisjointKeysNoConflict(t *testing.T) {
	ws := [][]uint64{{1, 2}, {3, 4}, {5, 6}}
	var s lockSim
	cf, dl := s.run(ws)
	if cf != 0 || dl != 0 {
		t.Fatalf("disjoint write sets conflicted: %d/%d", cf, dl)
	}
}

func TestBatchLockSimHotKeyConflicts(t *testing.T) {
	// Everyone updates the same row: all but the first wait; no deadlock
	// (single-key ordering cannot cycle).
	ws := [][]uint64{{7}, {7}, {7}, {7}}
	var s lockSim
	cf, dl := s.run(ws)
	if cf != 3 {
		t.Fatalf("conflicted = %d, want 3", cf)
	}
	if dl != 0 {
		t.Fatalf("single-key workload deadlocked: %d", dl)
	}
}

func TestBatchLockSimCrossingDeadlocks(t *testing.T) {
	// Two transactions acquiring {A,B} in opposite orders must produce a
	// deadlock under round-robin interleaving.
	ws := [][]uint64{{1, 2}, {2, 1}}
	var s lockSim
	cf, dl := s.run(ws)
	if dl != 1 {
		t.Fatalf("deadlocks = %d, want 1 (conflicted %d)", dl, cf)
	}
}

// TestBatchLockSimTerminatesProperty: arbitrary write sets must terminate
// (every transaction either finishes or is aborted) with sane counters.
func TestBatchLockSimTerminatesProperty(t *testing.T) {
	var s lockSim
	f := func(seed int64, nRaw, kRaw uint8) bool {
		rng := sim.NewRNG(seed)
		n := int(nRaw)%24 + 2
		keys := int(kRaw)%12 + 1
		ws := make([][]uint64, n)
		for i := range ws {
			m := rng.Intn(6)
			for j := 0; j < m; j++ {
				ws[i] = append(ws[i], uint64(rng.Intn(keys)))
			}
		}
		cf, dl := s.run(ws)
		return cf >= 0 && cf <= n && dl >= 0 && dl <= n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBatchLockSimContentionScalesWithHotness(t *testing.T) {
	rng := sim.NewRNG(9)
	var s lockSim
	run := func(keySpace int64) float64 {
		var conflicted, total int
		for b := 0; b < 50; b++ {
			ws := make([][]uint64, 16)
			for i := range ws {
				ws[i] = []uint64{uint64(rng.Int63n(keySpace)), uint64(rng.Int63n(keySpace))}
			}
			cf, _ := s.run(ws)
			conflicted += cf
			total += 16
		}
		return float64(conflicted) / float64(total)
	}
	hot := run(8)
	cold := run(1 << 30)
	if hot <= cold {
		t.Fatalf("hot key space should conflict more: hot=%.3f cold=%.3f", hot, cold)
	}
	if cold > 0.01 {
		t.Fatalf("huge key space should barely conflict: %.3f", cold)
	}
}

// roundRobin is the batch lock simulation as a plain round-robin loop, the
// reference lockSim.run must match: every round gives every unfinished
// transaction a turn, so a blocked transaction probes its key again at each
// of its turns and a transaction executing after its last lock waits out
// its turns until its commit round.
type roundRobin struct {
	lt       lockTable
	progress []int
	blocked  []bool
	end      batchEnd
}

// batchEnd says how a batch stopped.
type batchEnd int

const (
	endFinished   batchEnd = iota // every transaction committed or aborted
	endStandstill                 // everyone left is blocked behind someone blocked
	endRoundCap                   // cut at roundCap with turns still due
	endAny        batchEnd = -1   // a test case that does not pin the end
)

func runRoundRobin(writeSets [][]uint64) *roundRobin {
	const holdRounds = 2
	n := len(writeSets)
	maxKeys, keys := 0, 0
	for _, ws := range writeSets {
		maxKeys = max(maxKeys, len(ws))
		keys += len(ws)
	}
	r := &roundRobin{progress: make([]int, n), blocked: make([]bool, n)}
	r.lt.reset(n, keys)
	lt, progress, blocked := &r.lt, r.progress, r.blocked
	commitAt := make([]int, n)
	done := make([]bool, n)
	roundCap := n*(holdRounds+1) + 2*maxKeys + 16
	remaining := n
	for round := 0; remaining > 0 && round < roundCap; round++ {
		remaining = 0
		for t := 0; t < n; t++ {
			if done[t] || lt.aborted[t] {
				continue
			}
			remaining++
			if progress[t] >= len(writeSets[t]) {
				// Executing with all locks held; commit when done.
				if round >= commitAt[t] {
					lt.commit(t)
					done[t] = true
				}
				continue
			}
			if blocked[t] {
				// Retry the same key; succeeds once the holder released.
				if o, held := lt.owner.get(writeSets[t][progress[t]]); held && o != t {
					continue
				}
				blocked[t] = false
			}
			switch lt.acquire(t, writeSets[t][progress[t]]) {
			case lockGranted:
				progress[t]++
				if progress[t] >= len(writeSets[t]) {
					commitAt[t] = round + holdRounds
				}
			case lockBlocked:
				blocked[t] = true
			}
		}
	}
	r.end = endFinished
	for t := 0; t < n; t++ {
		if done[t] || lt.aborted[t] {
			continue
		}
		if !blocked[t] {
			r.end = endRoundCap
			break
		}
		r.end = endStandstill
	}
	return r
}

// lockSimDiff plays writeSets through lockSim.run and the round-robin
// reference and describes the first difference in their results or final
// state: counters, per-transaction progress and blocking, the lock table's
// held keys, wait-for edges, waited and aborted flags, and every key's
// owner. The lock table is deterministic, so equal final states after the
// same batch mean the two loops made the same calls.
func lockSimDiff(s *lockSim, writeSets [][]uint64) (string, batchEnd) {
	cf, dl := s.run(writeSets)
	ref := runRoundRobin(writeSets)
	if rcf, rdl := ref.lt.stats(); cf != rcf || dl != rdl {
		return fmt.Sprintf("(conflicted, deadlocks) = (%d, %d), round-robin (%d, %d)", cf, dl, rcf, rdl), ref.end
	}
	a, b := &s.lt, &ref.lt
	for t := range writeSets {
		switch {
		case s.progress[t] != ref.progress[t]:
			return fmt.Sprintf("txn %d progress %d, round-robin %d", t, s.progress[t], ref.progress[t]), ref.end
		case s.blocked[t] != ref.blocked[t]:
			return fmt.Sprintf("txn %d blocked %v, round-robin %v", t, s.blocked[t], ref.blocked[t]), ref.end
		case !slices.Equal(a.held[t], b.held[t]):
			return fmt.Sprintf("txn %d holds %v, round-robin %v", t, a.held[t], b.held[t]), ref.end
		case a.waitFor[t] != b.waitFor[t] || a.waited[t] != b.waited[t] || a.aborted[t] != b.aborted[t]:
			return fmt.Sprintf("txn %d (waitFor, waited, aborted) = (%d, %v, %v), round-robin (%d, %v, %v)", t,
				a.waitFor[t], a.waited[t], a.aborted[t], b.waitFor[t], b.waited[t], b.aborted[t]), ref.end
		}
	}
	if a.owner.n != b.owner.n {
		return fmt.Sprintf("%d keys locked, round-robin %d", a.owner.n, b.owner.n), ref.end
	}
	for _, ws := range writeSets {
		for _, k := range ws {
			o, ok := a.owner.get(k)
			ro, rok := b.owner.get(k)
			if o != ro || ok != rok {
				return fmt.Sprintf("key %d owned by (%d, %v), round-robin (%d, %v)", k, o, ok, ro, rok), ref.end
			}
		}
	}
	return "", ref.end
}

// randomLockBatch draws n write sets of up to maxLen keys each, from a hot
// range of hot keys and a cold range above 1<<32, as the engine's batches
// do; each set is sorted with probability ½.
func randomLockBatch(rng *sim.RNG, n, hot, maxLen int) [][]uint64 {
	ws := make([][]uint64, n)
	for t := range ws {
		m := rng.Intn(maxLen + 1)
		for j := 0; j < m; j++ {
			if rng.Intn(3) == 0 {
				ws[t] = append(ws[t], uint64(rng.Intn(hot)))
			} else {
				ws[t] = append(ws[t], 1<<32+uint64(rng.Intn(1<<20)))
			}
		}
		if rng.Intn(2) == 0 {
			slices.Sort(ws[t])
		}
	}
	return ws
}

// TestLockSimMatchesRoundRobin plays hand-built batches for each way a
// batch can end, then a seeded random corpus, through one reused lockSim
// and the round-robin reference.
func TestLockSimMatchesRoundRobin(t *testing.T) {
	const a, b = 1, 2
	// Ten transactions serialize on key 0, each then locking ten more rows:
	// the sixth is still locking when roundCap (68 rounds) cuts the batch.
	serial := make([][]uint64, 10)
	for i := range serial {
		serial[i] = []uint64{0}
		for j := 1; j <= 10; j++ {
			serial[i] = append(serial[i], 1<<32+uint64(100*i+j))
		}
	}
	// 120-key write sets (TPC-C's delivery) crossing on a small hot range.
	rng := sim.NewRNG(5)
	wide := randomLockBatch(rng, 24, 4, 8)
	for i := 0; i < len(wide); i += 4 {
		wide[i] = wide[i][:0]
		for len(wide[i]) < 120 {
			wide[i] = append(wide[i], uint64(rng.Intn(4)), 1<<32+uint64(rng.Intn(64)))
		}
	}
	cases := []struct {
		name string
		ws   [][]uint64
		end  batchEnd
	}{
		// T2 blocks on T1's B in round 0, T0 in round 1; T1 then requests
		// T0's A and is the deadlock victim. Its release wakes T2 later in
		// round 1 and T0 in round 2, where T0 finds B taken by T2.
		{"victim wakes both sides", [][]uint64{{a, b}, {b, a}, {b}}, endFinished},
		// As above, but T2 then requests T0's A: T0 parked on T2 without a
		// wait-for edge, so the cycle goes undetected.
		{"standstill", [][]uint64{{a, b}, {b, a}, {b, a}}, endStandstill},
		{"roundCap", serial, endRoundCap},
		{"repeated key", [][]uint64{{5, 5, 9}, {9, 5, 9}, {7, 5, 7, 5}, {5}}, endFinished},
		{"empty sets", [][]uint64{{}, {1}, nil, {1, 2}, {}}, endFinished},
		{"crossing", [][]uint64{{1, 2}, {2, 1}}, endFinished},
		{"120 keys", wide, endAny},
		{"256 txns", randomLockBatch(rng, 256, 16, 6), endAny},
		{"256 txns hot", randomLockBatch(rng, 256, 2, 3), endAny},
		{"no txns", nil, endFinished},
	}
	var s lockSim
	for _, c := range cases {
		diff, end := lockSimDiff(&s, c.ws)
		if diff != "" {
			t.Errorf("%s: %s", c.name, diff)
		}
		if c.end != endAny && end != c.end {
			t.Errorf("%s: batch ended %d, want %d", c.name, end, c.end)
		}
	}

	// The random corpus must itself reach every end.
	var ends [3]int
	for i := 0; i < 3000; i++ {
		n := 1 + rng.Intn([]int{4, 16, 64, 300}[i%4])
		ws := randomLockBatch(rng, n, 1+rng.Intn(40), []int{2, 6, 24, 130}[rng.Intn(4)])
		diff, end := lockSimDiff(&s, ws)
		if diff != "" {
			t.Fatalf("batch %d (%d txns): %s", i, n, diff)
		}
		ends[end]++
	}
	for end, c := range ends {
		if c == 0 {
			t.Errorf("random corpus has no batch ending %d (ends %v)", end, ends)
		}
	}
}

// decodeLockBatch turns fuzz bytes into a batch of at most 256 write sets.
// Byte 0 is the transaction count less one and byte 1 picks a hot range of
// 1–32 keys. Each transaction then reads a length byte (0–130 keys), a flag
// byte whose low bit sorts the set, and its keys: an even byte names a hot
// key, an odd one together with the byte after it one of 2^15 cold keys
// above 1<<32. Decoding stops where the bytes do.
func decodeLockBatch(data []byte) [][]uint64 {
	if len(data) < 2 {
		return nil
	}
	n, hot := int(data[0])+1, uint64(data[1]%32)+1
	data = data[2:]
	var ws [][]uint64
	for len(ws) < n && len(data) >= 2 {
		m, sorted := int(data[0])%131, data[1]&1 == 1
		data = data[2:]
		set := []uint64{}
		for len(set) < m && len(data) > 0 {
			c := data[0]
			data = data[1:]
			if c&1 == 0 {
				set = append(set, uint64(c>>1)%hot)
				continue
			}
			var lo byte
			if len(data) > 0 {
				lo, data = data[0], data[1:]
			}
			set = append(set, 1<<32|uint64(c>>1)<<8|uint64(lo))
		}
		if sorted {
			slices.Sort(set)
		}
		ws = append(ws, set)
	}
	return ws
}

// FuzzLockSimMatchesRoundRobin checks lockSim.run against the round-robin
// reference on arbitrary batches.
func FuzzLockSimMatchesRoundRobin(f *testing.F) {
	f.Add([]byte{2, 1, 2, 0, 0, 2, 2, 0, 2, 0, 2, 0, 2, 0}) // the standstill case
	f.Add([]byte{1, 1, 2, 0, 0, 2, 2, 0, 2, 0})             // crossing pair
	f.Add([]byte{3, 0, 0, 0, 3, 1, 7, 3, 9, 1, 1, 5, 2})    // empty and cold sets
	// 256 transactions of up to 7 keys.
	full := []byte{255, 3}
	rng := sim.NewRNG(3)
	for t := 0; t < 256; t++ {
		m := rng.Intn(8)
		full = append(full, byte(m), byte(rng.Intn(2)))
		for j := 0; j < m; j++ {
			c := byte(rng.Intn(256))
			full = append(full, c)
			if c&1 == 1 {
				full = append(full, byte(rng.Intn(256)))
			}
		}
	}
	f.Add(full)
	var s lockSim
	f.Fuzz(func(t *testing.T, data []byte) {
		if diff, _ := lockSimDiff(&s, decodeLockBatch(data)); diff != "" {
			t.Fatal(diff)
		}
	})
}

// TestLockSimAllocs: a warm lockSim.run allocates nothing, also after its
// batch grew and shrank again.
func TestLockSimAllocs(t *testing.T) {
	rng := sim.NewRNG(1)
	small, large := tpccLockBatch(rng), sysbenchLockBatch(rng)
	var s lockSim
	s.run(small)
	s.run(large)
	for _, c := range []struct {
		name string
		ws   [][]uint64
	}{{"shrunk", small}, {"grown", large}} {
		if allocs := testing.AllocsPerRun(20, func() { s.run(c.ws) }); allocs != 0 {
			t.Errorf("%s: lockSim.run allocates %v times per batch, want 0", c.name, allocs)
		}
	}
}
