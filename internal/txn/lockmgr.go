// Package txn implements the transaction-processing content of the
// database column of Table I ("transactions processing, scheduling
// concurrent transactions, transaction locks, and deadlocks"): a strict
// two-phase-locking lock manager with three deadlock policies (waits-for
// cycle detection with youngest-victim abort, wound-wait, wait-die),
// a transactional key-value store with undo logging, basic timestamp-
// ordering concurrency control, and a conflict-serializability checker
// over recorded histories.
package txn

import (
	"errors"
	"fmt"
	"sync"
)

// ErrAborted is returned to a transaction that has been chosen as a
// deadlock victim (or wounded/died under the priority schemes).
var ErrAborted = errors.New("txn: transaction aborted")

// Mode is a lock mode.
type Mode int

const (
	// S is a shared (read) lock.
	S Mode = iota
	// X is an exclusive (write) lock.
	X
)

// String returns the mode name.
func (m Mode) String() string {
	if m == S {
		return "S"
	}
	return "X"
}

// Strategy selects how the lock manager handles deadlocks.
type Strategy int

const (
	// Detect builds the waits-for graph on each block and aborts the
	// youngest transaction on a cycle.
	Detect Strategy = iota
	// WoundWait lets an older requester abort ("wound") younger
	// conflicting holders; younger requesters wait for older holders.
	WoundWait
	// WaitDie lets an older requester wait; a younger requester aborts
	// itself ("dies") instead of waiting on an older holder.
	WaitDie
)

// String returns the strategy name.
func (s Strategy) String() string {
	switch s {
	case Detect:
		return "detect"
	case WoundWait:
		return "wound-wait"
	case WaitDie:
		return "wait-die"
	default:
		return "unknown"
	}
}

// lockState tracks one key's holders.
type lockState struct {
	holders map[int]Mode // txn -> mode held
}

// LockManager grants S/X locks under strict two-phase locking.
type LockManager struct {
	mu       sync.Mutex
	cond     *sync.Cond
	strategy Strategy
	locks    map[string]*lockState
	// ts assigns each transaction its age (smaller = older).
	ts     map[int]uint64
	nextTS uint64
	// lostTo[v] is the transaction victim v was aborted in favour of;
	// present means aborted.
	lostTo map[int]int
	// waitsFor[t] = set of transactions t waits on (Detect only).
	waitsFor map[int]map[int]bool
	// stats
	Deadlocks int64
	Wounds    int64
	Deaths    int64
}

// NewLockManager creates a lock manager with the given deadlock policy.
func NewLockManager(s Strategy) *LockManager {
	lm := &LockManager{
		strategy: s,
		locks:    map[string]*lockState{},
		ts:       map[int]uint64{},
		lostTo:   map[int]int{},
		waitsFor: map[int]map[int]bool{},
	}
	lm.cond = sync.NewCond(&lm.mu)
	return lm
}

// Register assigns a begin timestamp to a transaction and returns it;
// must be called once before its first Acquire.
func (lm *LockManager) Register(txn int) uint64 {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	if _, ok := lm.ts[txn]; !ok {
		lm.nextTS++
		lm.ts[txn] = lm.nextTS
	}
	return lm.ts[txn]
}

// RegisterRestart registers txn as a restart of an aborted transaction,
// at that transaction's begin timestamp ts. Keeping the age is what
// makes wound-wait and wait-die starvation-free: a transaction that
// keeps losing eventually becomes the oldest one, which neither scheme
// aborts. A restart under a fresh (younger) timestamp can lose forever.
//
// It first waits until winner — the transaction the aborted one lost
// to, as ReleaseAll reported — has finished. The victim holds no locks
// by then, so the wait cannot deadlock, and without it the restart
// races the winner's wake-up for the lock just released, wins, and is
// aborted by the same winner again: a retry budget burnt on one
// conflict.
func (lm *LockManager) RegisterRestart(txn int, ts uint64, winner int) {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	for lm.ts[winner] != 0 { // registered: timestamps start at 1
		lm.cond.Wait()
	}
	lm.ts[txn] = ts
}

// Aborted reports whether the transaction has been marked as a victim.
func (lm *LockManager) Aborted(txn int) bool {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	return lm.abortedLocked(txn)
}

func (lm *LockManager) abortedLocked(txn int) bool {
	_, aborted := lm.lostTo[txn]
	return aborted
}

// conflicting returns the holders of key that conflict with txn's
// request.
func (st *lockState) conflicting(txn int, mode Mode) []int {
	var out []int
	for h, hm := range st.holders {
		if h == txn {
			continue
		}
		if mode == X || hm == X {
			out = append(out, h)
		}
	}
	return out
}

// canGrant reports whether txn may take key in mode right now.
func (st *lockState) canGrant(txn int, mode Mode) bool {
	if st == nil {
		return true
	}
	return len(st.conflicting(txn, mode)) == 0
}

// Acquire takes key in the given mode for txn, blocking until granted.
// It returns ErrAborted when the transaction loses a deadlock
// resolution; the caller must then roll back and release.
func (lm *LockManager) Acquire(txn int, key string, mode Mode) error {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	if _, ok := lm.ts[txn]; !ok {
		return fmt.Errorf("txn: transaction %d not registered", txn)
	}
	for {
		if lm.abortedLocked(txn) {
			delete(lm.waitsFor, txn)
			return ErrAborted
		}
		st := lm.locks[key]
		if st == nil {
			st = &lockState{holders: map[int]Mode{}}
			lm.locks[key] = st
		}
		// Grant, upgrading S to X when requested and compatible.
		if st.canGrant(txn, mode) {
			if prev, held := st.holders[txn]; !held || (prev == S && mode == X) {
				st.holders[txn] = mode
			}
			delete(lm.waitsFor, txn)
			return nil
		}
		conf := st.conflicting(txn, mode)
		switch lm.strategy {
		case WoundWait:
			// Older requester wounds younger holders (once each), then
			// waits like everyone else: a wounded holder keeps its locks
			// until it has rolled back, and older holders are waited on.
			for _, h := range conf {
				if lm.ts[txn] < lm.ts[h] && !lm.abortedLocked(h) {
					lm.abortLocked(h, txn)
					lm.Wounds++
					lm.cond.Broadcast() // the victim may itself be blocked in Acquire
				}
			}
		case WaitDie:
			for _, h := range conf {
				if lm.ts[txn] > lm.ts[h] {
					// Younger than a holder: die.
					lm.abortLocked(txn, h)
					lm.Deaths++
					lm.cond.Broadcast()
					return ErrAborted
				}
			}
			// Older than every holder: wait.
		case Detect:
			w := lm.waitsFor[txn]
			if w == nil {
				w = map[int]bool{}
				lm.waitsFor[txn] = w
			}
			for _, h := range conf {
				w[h] = true
			}
			if cycle := lm.findCycleLocked(); len(cycle) > 0 {
				victim, oldest := cycle[0], cycle[0]
				for _, t := range cycle[1:] {
					if lm.ts[t] > lm.ts[victim] {
						victim = t // youngest dies
					}
					if lm.ts[t] < lm.ts[oldest] {
						oldest = t
					}
				}
				lm.abortLocked(victim, oldest)
				lm.Deadlocks++
				lm.cond.Broadcast()
				if victim == txn {
					delete(lm.waitsFor, txn)
					return ErrAborted
				}
				continue
			}
		}
		lm.cond.Wait()
		// Stale waits-for edges are rebuilt on the next iteration.
		delete(lm.waitsFor, txn)
	}
}

// abortLocked marks a victim; the victim's own goroutine observes
// ErrAborted at its next lock-manager interaction. The victim keeps
// every lock it holds until its own ReleaseAll — strict 2PL: nobody
// may read or overwrite its dirty writes before it has rolled them
// back — so whoever chose it waits on the mark like any other waiter.
// Only its waits-for edges go: an aborting transaction waits on nobody.
// winner is the transaction the victim is sacrificed for.
func (lm *LockManager) abortLocked(victim, winner int) {
	lm.lostTo[victim] = winner
	delete(lm.waitsFor, victim)
}

// findCycleLocked finds a cycle in the waits-for graph; edges to
// transactions that no longer hold conflicting locks are pruned lazily
// by waiters, so the graph may be slightly stale but only toward false
// positives resolved by the retry loop.
func (lm *LockManager) findCycleLocked() []int {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := map[int]int{}
	parent := map[int]int{}
	var cycle []int
	var dfs func(t int) bool
	dfs = func(t int) bool {
		color[t] = gray
		for u := range lm.waitsFor[t] {
			switch color[u] {
			case white:
				parent[u] = t
				if dfs(u) {
					return true
				}
			case gray:
				cycle = []int{u}
				for cur := t; cur != u; cur = parent[cur] {
					cycle = append(cycle, cur)
				}
				return true
			}
		}
		color[t] = black
		return false
	}
	for t := range lm.waitsFor {
		if color[t] == white && dfs(t) {
			return cycle
		}
	}
	return nil
}

// ReleaseAll releases every lock held by txn (commit or rollback point
// of strict 2PL) and clears its abort mark and timestamp. If txn had
// been aborted, it reports the transaction it lost to, for
// RegisterRestart to wait on.
func (lm *LockManager) ReleaseAll(txn int) (winner int, aborted bool) {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	for _, st := range lm.locks {
		delete(st.holders, txn)
	}
	winner, aborted = lm.lostTo[txn]
	delete(lm.waitsFor, txn)
	delete(lm.lostTo, txn)
	delete(lm.ts, txn)
	lm.cond.Broadcast()
	return winner, aborted
}

// HoldsLock reports txn's mode on key (for tests).
func (lm *LockManager) HoldsLock(txn int, key string) (Mode, bool) {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	st := lm.locks[key]
	if st == nil {
		return 0, false
	}
	m, ok := st.holders[txn]
	return m, ok
}
