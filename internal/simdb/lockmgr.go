package simdb

import "math/bits"

// lockTable is a row-lock manager with wait-for-graph deadlock detection,
// the mechanism behind the engine's lock-contention measurements. During a
// stress test the engine simulates batches of concurrent transactions
// acquiring exclusive row locks; a transaction that requests a held lock
// blocks behind the holder, and a cycle in the wait-for graph is a
// deadlock (InnoDB detects these immediately; PostgreSQL after
// deadlock_timeout).
//
// Every transaction with a wait-for edge into u sits in u's waiter list,
// put there by the acquire that drew the edge (lockSim also parks there,
// edgeless, a woken waiter that finds its key taken by u). u's release
// clears the edges of its list; lockSim's wake then empties it. Lists stay
// intact until then: a transaction releases once per batch, and a blocked
// one requests nothing until its holder has released.
type lockTable struct {
	owner    lockOwners // key → owning transaction
	held     [][]uint64 // per-txn held keys
	waitFor  []int      // blocked txn → txn it waits on (-1: none)
	waiters  []int      // holder → first transaction parked on it (-1: none)
	nextWait []int      // parked transaction → next one parked on its holder
	waited   []bool     // txns that blocked at least once
	aborted  []bool

	deadlocks int
	nWaited   int
}

// reset prepares the table for a fresh batch of n transactions that write
// at most keys rows between them, reusing the per-transaction slices and
// the owner table from earlier batches — the lock simulation runs dozens
// of batches per stress test, so the allocation churn of rebuilding the
// table dominated the measurement loop.
func (lt *lockTable) reset(n, keys int) {
	lt.owner.reset(keys)
	if cap(lt.held) < n {
		lt.held = make([][]uint64, n)
		lt.waitFor = make([]int, n)
		lt.waiters = make([]int, n)
		lt.nextWait = make([]int, n)
		lt.waited = make([]bool, n)
		lt.aborted = make([]bool, n)
	} else {
		lt.held = lt.held[:n]
		lt.waitFor = lt.waitFor[:n]
		lt.waiters = lt.waiters[:n]
		lt.nextWait = lt.nextWait[:n]
		lt.waited = lt.waited[:n]
		lt.aborted = lt.aborted[:n]
	}
	for i := 0; i < n; i++ {
		lt.held[i] = lt.held[i][:0]
		lt.waitFor[i], lt.waiters[i] = -1, -1
		lt.waited[i] = false
		lt.aborted[i] = false
	}
	lt.deadlocks, lt.nWaited = 0, 0
}

// lockOwners maps a row key to its owning transaction. get, put and del
// act exactly like a Go map's index, assignment and delete, at a fraction
// of a map's cost on the lock simulation's hot path: open addressing with
// linear probing over a power-of-two slot array kept at most half full,
// and backward-shift deletion, so no tombstones build up.
type lockOwners struct {
	slots []lockSlot
	shift uint // 64 − log2(len(slots)): the hash keeps the top bits
	n     int
}

// lockSlot holds one entry; txn is the owner plus one, so 0 marks an empty
// slot and any key value is storable.
type lockSlot struct {
	key uint64
	txn int
}

// reset empties the table and sizes it for keys entries at load ≤ ½.
func (o *lockOwners) reset(keys int) {
	size := 16
	for size < 2*keys {
		size *= 2
	}
	if len(o.slots) < size {
		o.alloc(size)
		return
	}
	if o.n > 0 {
		clear(o.slots)
		o.n = 0
	}
}

func (o *lockOwners) alloc(size int) {
	o.slots = make([]lockSlot, size)
	o.shift = uint(65 - bits.Len(uint(size)))
	o.n = 0
}

// home is key's preferred slot (Fibonacci hashing).
func (o *lockOwners) home(key uint64) int {
	return int((key * 0x9e3779b97f4a7c15) >> o.shift)
}

// find returns the slot holding key, or the empty slot ending its probe
// sequence.
func (o *lockOwners) find(key uint64) int {
	mask := len(o.slots) - 1
	i := o.home(key)
	for o.slots[i].txn != 0 && o.slots[i].key != key {
		i = (i + 1) & mask
	}
	return i
}

func (o *lockOwners) get(key uint64) (txn int, ok bool) {
	sl := o.slots[o.find(key)]
	return sl.txn - 1, sl.txn != 0
}

func (o *lockOwners) put(key uint64, txn int) {
	i := o.find(key)
	if o.slots[i].txn == 0 {
		if 2*(o.n+1) > len(o.slots) {
			o.grow()
			i = o.find(key)
		}
		o.n++
	}
	o.slots[i] = lockSlot{key: key, txn: txn + 1}
}

// grow doubles the table. reset sizes it for the batch's whole write set,
// so only a caller that puts more keys than it declared gets here.
func (o *lockOwners) grow() {
	old := o.slots
	o.alloc(2 * len(old))
	for _, sl := range old {
		if sl.txn != 0 {
			o.slots[o.find(sl.key)] = sl
			o.n++
		}
	}
}

func (o *lockOwners) del(key uint64) {
	i := o.find(key)
	if o.slots[i].txn == 0 {
		return
	}
	// Backward shift: pull each later entry of the probe run into the hole
	// unless its home lies cyclically after the hole.
	mask := len(o.slots) - 1
	for j := (i + 1) & mask; o.slots[j].txn != 0; j = (j + 1) & mask {
		if (j-o.home(o.slots[j].key))&mask >= (j-i)&mask {
			o.slots[i] = o.slots[j]
			i = j
		}
	}
	o.slots[i] = lockSlot{}
	o.n--
}

// acquireResult describes the outcome of one lock request.
type acquireResult int

const (
	lockGranted acquireResult = iota
	lockBlocked
	lockDeadlock // requester chosen as deadlock victim and aborted
)

// acquire requests an exclusive lock on key for txn. On conflict the
// transaction blocks behind the holder, parked in its waiter list; if that
// wait would close a cycle in the wait-for graph, the requester is aborted
// as the deadlock victim (its locks are released, possibly waking other
// waiters' paths).
func (lt *lockTable) acquire(txn int, key uint64) acquireResult {
	if lt.aborted[txn] {
		return lockDeadlock
	}
	holder, taken := lt.owner.get(key)
	if !taken || holder == txn {
		if !taken {
			lt.owner.put(key, txn)
			lt.held[txn] = append(lt.held[txn], key)
		}
		return lockGranted
	}
	// Would wait on holder: check for a cycle holder → … → txn.
	if !lt.waited[txn] {
		lt.waited[txn] = true
		lt.nWaited++
	}
	node, hops := holder, 0
	for hops <= len(lt.waitFor)+1 {
		next := lt.waitFor[node]
		if next < 0 {
			break
		}
		if next == txn {
			// Cycle: abort the requester (youngest-waiter victim policy).
			lt.deadlocks++
			lt.abort(txn)
			return lockDeadlock
		}
		node = next
		hops++
	}
	lt.waitFor[txn] = holder
	lt.park(txn, holder)
	return lockBlocked
}

// park queues txn in holder's waiter list.
func (lt *lockTable) park(txn, holder int) {
	lt.nextWait[txn] = lt.waiters[holder]
	lt.waiters[holder] = txn
}

// abort releases everything txn holds and removes it from the graph.
func (lt *lockTable) abort(txn int) {
	lt.aborted[txn] = true
	lt.release(txn)
}

// commit releases txn's locks at transaction end.
func (lt *lockTable) commit(txn int) { lt.release(txn) }

func (lt *lockTable) release(txn int) {
	for _, k := range lt.held[txn] {
		if o, ok := lt.owner.get(k); ok && o == txn {
			lt.owner.del(k)
		}
	}
	lt.held[txn] = lt.held[txn][:0]
	lt.waitFor[txn] = -1
	// Waiters blocked on txn are now unblocked (they will retry).
	for w := lt.waiters[txn]; w >= 0; w = lt.nextWait[w] {
		lt.waitFor[w] = -1
	}
}

// stats summarizes a batch.
func (lt *lockTable) stats() (conflicted, deadlocks int) {
	return lt.nWaited, lt.deadlocks
}

// lockSim is the reusable state of the batch lock simulation: one lock
// table plus the per-transaction scheduling scratch, reused across the many
// batches of a stress test and across stress tests.
type lockSim struct {
	lt       lockTable
	progress []int    // index of each transaction's next key to lock
	blocked  []bool   // waiting for writeSets[t][progress[t]]
	due      []uint64 // three round bitsets back to back, see run
}

// prepare sizes the scratch for n transactions writing at most keys rows
// and resets it: no progress, nobody blocked or parked, nobody due.
func (s *lockSim) prepare(n, keys int) {
	s.lt.reset(n, keys)
	if cap(s.progress) < n {
		s.progress = make([]int, n)
		s.blocked = make([]bool, n)
	} else {
		s.progress = s.progress[:n]
		s.blocked = s.blocked[:n]
	}
	for i := 0; i < n; i++ {
		s.progress[i], s.blocked[i] = 0, false
	}
	if words := 3 * ((n + 63) / 64); cap(s.due) < words {
		s.due = make([]uint64, words)
	} else {
		s.due = s.due[:words]
		clear(s.due)
	}
}

// roundSet is the set of transactions due in one round, one bit each.
type roundSet []uint64

func (r roundSet) add(t int) { r[t>>6] |= 1 << (t & 63) }

func (r roundSet) empty() bool {
	for _, w := range r {
		if w != 0 {
			return false
		}
	}
	return true
}

// wake empties u's waiter list, making its transactions due at the first
// turn at which they can see u's keys free, u having just released them at
// its own turn: later in this round above u, in the next round below it.
func (s *lockSim) wake(u int, now, next roundSet) {
	lt := &s.lt
	for w := lt.waiters[u]; w >= 0; w = lt.nextWait[w] {
		if w > u {
			now.add(w)
		} else {
			next.add(w)
		}
	}
	lt.waiters[u] = -1
}

// run plays one batch of concurrent transactions: transactions acquire
// their write keys round-robin (the interleaving of concurrent execution),
// hold everything until they finish executing (two-phase locking with a
// short post-acquisition execution phase), and blocked transactions retry
// after the holder commits. It returns how many transactions ever waited
// and how many deadlocked.
//
// Each round takes transactions in ascending index, one lock request per
// turn, but visits only those that can act in it; every turn it skips
// would find its transaction executing or its key still held, and change
// nothing. A granted transaction is due next round, one holding all its
// locks at its commit round, holdRounds later. A blocked one parks on the
// key's holder until the holder commits or aborts; if a third transaction
// takes the key first, it parks on that one instead, without a wait-for
// edge, as a blocked transaction that merely probed the key would. The
// batch ends at roundCap, or when no round has anyone due: everyone left
// is then parked behind someone parked, and nothing can change any more.
func (s *lockSim) run(writeSets [][]uint64) (conflicted, deadlocks int) {
	const holdRounds = 2 // execution time after the last lock, in rounds
	n := len(writeSets)
	maxKeys, keys := 0, 0
	for _, ws := range writeSets {
		if len(ws) > maxKeys {
			maxKeys = len(ws)
		}
		keys += len(ws)
	}
	s.prepare(n, keys)
	lt := &s.lt
	progress, blocked := s.progress, s.blocked
	// Due sets of this round, the next and the one after, the furthest a
	// turn is ever scheduled ahead (holdRounds).
	words := len(s.due) / 3
	now, next, after := roundSet(s.due[:words]), roundSet(s.due[words:2*words]), roundSet(s.due[2*words:])
	for t := 0; t < n; t++ {
		now.add(t)
	}
	// Worst case is full serialization on one hot key: n·(holdRounds+1)
	// rounds; beyond that something is livelocked and we cut off.
	roundCap := n*(holdRounds+1) + 2*maxKeys + 16
	for round := 0; round < roundCap; round++ {
		// Wake-ups above the current index land in now while it is
		// scanned, so the scan re-reads each word until it is empty.
		for i := range now {
			for now[i] != 0 {
				b := bits.TrailingZeros64(now[i])
				now[i] &^= 1 << b
				t := i<<6 | b
				ws := writeSets[t]
				if progress[t] >= len(ws) {
					// Executed with all locks held: commit.
					lt.commit(t)
					s.wake(t, now, next)
					continue
				}
				key := ws[progress[t]]
				if blocked[t] {
					// Woken: retry unless someone took the key first.
					if o, held := lt.owner.get(key); held && o != t {
						lt.park(t, o)
						continue
					}
					blocked[t] = false
				}
				switch lt.acquire(t, key) {
				case lockGranted:
					progress[t]++
					if progress[t] < len(ws) {
						next.add(t)
					} else {
						after.add(t) // commit round
					}
				case lockBlocked:
					blocked[t] = true // parked on the holder by acquire
				case lockDeadlock:
					// Victim aborted; its locks were released.
					s.wake(t, now, next)
				}
			}
		}
		now, next, after = next, after, now
		if now.empty() && next.empty() {
			break
		}
	}
	return lt.stats()
}
