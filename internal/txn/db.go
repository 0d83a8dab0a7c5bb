package txn

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"pdcedu/internal/store"
)

// DB is a transactional key-value store protected by strict 2PL. The
// data lives in a store.Sharded — the same sharded, versioned substrate
// the csnet KV handler and the dist cluster run on — so transactions
// no longer funnel every access through one DB-wide mutex: the lock
// manager serializes conflicting transactions per key, and the engine
// shards the physical access under them.
type DB struct {
	lm      *LockManager
	eng     *store.Sharded
	nextTxn atomic.Int64
	history *History
	// Commits and Aborts count outcomes.
	Commits atomic.Int64
	Aborts  atomic.Int64
}

// NewDB creates an empty store under the given deadlock policy, on a
// fresh sharded engine. The history of every successful read/write is
// recorded for offline serializability checking.
func NewDB(s Strategy) *DB {
	return &DB{lm: NewLockManager(s), eng: store.NewSharded(store.Options{}), history: &History{}}
}

// encInt packs a value for the byte-oriented engine.
func encInt(v int64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(v))
	return b[:]
}

// decInt unpacks an engine value; absent or foreign-sized values read
// as zero, matching the old map's zero-value semantics.
func decInt(b []byte, ok bool) int64 {
	if !ok || len(b) != 8 {
		return 0
	}
	return int64(binary.BigEndian.Uint64(b))
}

// Set initializes a key outside any transaction — seeding for tests,
// benchmarks, and demos. It bypasses the lock manager, so it must not
// run concurrently with active transactions: a Set racing a
// transaction's Put on the same key can be overwritten (and undone by
// a later rollback) because nothing orders the two. The old DB-wide
// mutex hid that race by accident; the contract is now explicit.
func (db *DB) Set(key string, v int64) {
	db.eng.Set(key, encInt(v))
}

// ReadCommitted returns a key's committed value outside any transaction.
func (db *DB) ReadCommitted(key string) int64 {
	e, ok := db.eng.Get(key)
	return decInt(e.Value, ok)
}

// History returns the recorded operation history.
func (db *DB) History() *History { return db.history }

// Txn is an active transaction.
type Txn struct {
	db   *DB
	id   int
	ts   uint64 // begin timestamp: its age under the deadlock policies
	undo []undoRec
	done bool
	// lostTo is the transaction this one was aborted in favour of (0:
	// none — IDs start at 1), known once it has rolled back.
	lostTo int
}

type undoRec struct {
	key  string
	prev int64
	had  bool
}

// Begin starts a transaction.
func (db *DB) Begin() *Txn {
	id := int(db.nextTxn.Add(1))
	return &Txn{db: db, id: id, ts: db.lm.Register(id)}
}

// Restart begins the next attempt of a finished (aborted) transaction,
// once the transaction it lost to is out of the way: a new ID, so the
// history keeps the attempts apart, but the original begin timestamp,
// so the retry is as old as the work it is retrying.
func (t *Txn) Restart() *Txn {
	id := int(t.db.nextTxn.Add(1))
	t.db.lm.RegisterRestart(id, t.ts, t.lostTo)
	return &Txn{db: t.db, id: id, ts: t.ts}
}

// ID returns the transaction identifier.
func (t *Txn) ID() int { return t.id }

// Get reads key under a shared lock.
func (t *Txn) Get(key string) (int64, error) {
	if t.done {
		return 0, fmt.Errorf("txn: transaction %d already finished", t.id)
	}
	if err := t.db.lm.Acquire(t.id, key, S); err != nil {
		t.rollback()
		return 0, err
	}
	e, ok := t.db.eng.Get(key)
	t.db.history.Record(t.id, OpRead, key)
	return decInt(e.Value, ok), nil
}

// Put writes key under an exclusive lock, logging the before-image for
// rollback. The 2PL X lock serializes transactional access to the key,
// so the read-for-undo and the write need no extra latch.
func (t *Txn) Put(key string, v int64) error {
	if t.done {
		return fmt.Errorf("txn: transaction %d already finished", t.id)
	}
	if err := t.db.lm.Acquire(t.id, key, X); err != nil {
		t.rollback()
		return err
	}
	e, had := t.db.eng.Get(key)
	t.undo = append(t.undo, undoRec{key: key, prev: decInt(e.Value, had), had: had})
	t.db.eng.Set(key, encInt(v))
	t.db.history.Record(t.id, OpWrite, key)
	return nil
}

// Commit finishes the transaction; if it was chosen as a deadlock victim
// since its last operation, the writes are rolled back and ErrAborted
// returned.
func (t *Txn) Commit() error {
	if t.done {
		return fmt.Errorf("txn: transaction %d already finished", t.id)
	}
	if t.db.lm.Aborted(t.id) {
		t.rollback()
		return ErrAborted
	}
	t.done = true
	t.db.history.Record(t.id, OpCommit, "")
	t.db.lm.ReleaseAll(t.id)
	t.db.Commits.Add(1)
	return nil
}

// Abort rolls the transaction back voluntarily.
func (t *Txn) Abort() {
	if !t.done {
		t.rollback()
	}
}

// rollback undoes writes in reverse order and releases locks. Each
// restore is a fresh versioned write (or tombstone): the engine's
// history moves forward even as the logical value moves back.
func (t *Txn) rollback() {
	if t.done {
		return
	}
	t.done = true
	for i := len(t.undo) - 1; i >= 0; i-- {
		u := t.undo[i]
		if u.had {
			t.db.eng.Set(u.key, encInt(u.prev))
		} else {
			t.db.eng.Delete(u.key)
		}
	}
	t.db.history.Record(t.id, OpAbort, "")
	t.lostTo, _ = t.db.lm.ReleaseAll(t.id)
	t.db.Aborts.Add(1)
}

// Transfer is the canonical bank workload: move amount from one account
// to another inside a transaction, retrying on deadlock aborts up to
// maxRetries times. Every retry keeps the first attempt's timestamp.
func Transfer(db *DB, from, to string, amount int64, maxRetries int) error {
	t := db.Begin()
	for attempt := 0; ; attempt++ {
		err := func() error {
			a, err := t.Get(from)
			if err != nil {
				return err
			}
			b, err := t.Get(to)
			if err != nil {
				return err
			}
			if err := t.Put(from, a-amount); err != nil {
				return err
			}
			if err := t.Put(to, b+amount); err != nil {
				return err
			}
			return t.Commit()
		}()
		if err == nil {
			return nil
		}
		if err == ErrAborted && attempt < maxRetries {
			t = t.Restart()
			continue
		}
		t.Abort()
		return err
	}
}
