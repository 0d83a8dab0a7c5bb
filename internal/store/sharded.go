package store

import (
	"fmt"
	"sync/atomic"
	"time"
)

// DefaultShards is the shard count when Options.Shards is zero: wide
// enough that dozens of writer goroutines rarely collide, small enough
// that a sweep pass over one shard stays cheap.
const DefaultShards = 128

// Sharded is the storage engine: the key space is split over a
// power-of-two number of shards, each an independent table behind its
// own mutex. Writers on different shards never contend, and the
// whole-store paths (RangeBuckets, Digest, Sweep) lock one shard at a
// time, so a listing of a huge store stalls at most 1/N of the key
// space at once. It is safe for concurrent use, and keeps neither a key
// nor a value a caller passes in past the call: whatever it stores is
// its own copy (a table stores the key its record holds), so a server
// may hand it bytes it is about to reuse.
type Sharded struct {
	*sharded
	// deferred marks a view made by Deferred: its writes note their log
	// position in last and return, and the view's one Wait blocks for it.
	deferred bool
	last     uint64
}

// sharded is the engine proper, shared by every view of it.
type sharded struct {
	clock *Clock
	now   func() time.Time
	gcAge time.Duration
	mask  uint32
	// cursor rotates Sweep across shards so bounded sweeps cover the
	// whole store over successive calls.
	cursor atomic.Uint32
	shards []shard
	merkle merkle
	// wal is the persistence seam: nil for a memory-only engine
	// (NewSharded), set by OpenSharded; see logAndUnlock.
	wal *wal
}

// NewSharded creates a sharded engine.
func NewSharded(o Options) *Sharded {
	o = o.withDefaults()
	n := o.Shards
	if n <= 0 {
		n = DefaultShards
	}
	// Round up to a power of two so shard picking is a mask, not a mod.
	pow := 1
	for pow < n {
		pow <<= 1
	}
	s := &Sharded{sharded: &sharded{
		clock:  NewClockAt(func() int64 { return o.Now().UnixMilli() }),
		now:    o.Now,
		gcAge:  o.TombstoneGC,
		mask:   uint32(pow - 1),
		shards: make([]shard, pow),
	}}
	// Buckets and shards mask the same key hash's low bits, so with
	// buckets >= shards every bucket's keys live in exactly one shard
	// (shard = bucket & mask) — what lets a dirty-bucket rebuild and a
	// RangeBuckets listing scan one shard instead of the whole store.
	s.merkle.init(merkleBuckets(o.MerkleBuckets, pow))
	for i := range s.shards {
		s.shards[i].t = newTable(s.merkle.touch)
	}
	return s
}

// merkleBuckets rounds the configured Merkle leaf count up to a power
// of two no smaller than the (power-of-two) shard count.
func merkleBuckets(n, shards int) int {
	if n <= 0 {
		n = DefaultMerkleBuckets
	}
	pow := 1
	for pow < n {
		pow <<= 1
	}
	if pow < shards {
		pow = shards
	}
	return pow
}

// shardFor hashes key onto its shard with the shared keyHash32 (the
// same hash the Merkle bucket partition masks).
func (s *Sharded) shardFor(key string) *shard {
	return &s.shards[keyHash32(key)&s.mask]
}

// reserve sizes every shard's table for its share of entries keys —
// they hash uniformly over shards — before a load of that many, so the
// tables are not doubled up from minSlots one insert at a time. A shard
// dealt more than its share resizes as any insert would. The engine is
// not shared yet, so it takes no locks.
func (s *Sharded) reserve(entries int) {
	for i := range s.shards {
		s.shards[i].t.reserve(entries / len(s.shards))
	}
}

// Shards reports the effective (power-of-two) shard count.
func (s *Sharded) Shards() int { return len(s.shards) }

// Get returns the live entry for key: tombstoned and absent keys both
// miss. It is AppendLoad into a new buffer, so its Value is the
// caller's own copy.
func (s *Sharded) Get(key string) (Entry, bool) {
	_, e, ok := s.AppendLoad(nil, key)
	if !ok || e.Tombstone {
		return Entry{}, false
	}
	return e, true
}

// AppendLoad returns key's raw entry, tombstones included — the
// replication view — with its value appended to dst under the shard
// lock, and the extended dst. The entry's Value aliases dst, never the
// record (nil for an empty value or a tombstone); a server hands it a
// buffer it reuses once the reply is encoded.
func (s *Sharded) AppendLoad(dst []byte, key string) ([]byte, Entry, bool) {
	sh := s.shardFor(key)
	sh.mu.Lock()
	dst, e, ok := sh.t.appendLoad(dst, key)
	sh.mu.Unlock()
	return dst, e, ok
}

// Set stores value with a fresh clock version and returns the stamped
// version. The version is stamped under the shard lock, so within a key
// the table order and the version order agree.
func (s *Sharded) Set(key string, value []byte) uint64 {
	sh := s.shardFor(key)
	sh.mu.Lock()
	ver := s.clock.Next()
	sh.t.set(key, value, ver)
	s.logAndUnlock(sh, key, Entry{Value: value, Version: ver}, false)
	return ver
}

// logAndUnlock ends a write's critical section: it appends the record
// of the mutation just applied while sh.mu is still held — the same
// critical section as the table mutation, so the log replays each key
// in table order — then releases the shard and waits for the fsync
// policy's ack, which a Deferred view leaves to its Wait. On a
// memory-only engine it is just the unlock.
func (s *Sharded) logAndUnlock(sh *shard, key string, e Entry, purge bool) {
	if s.wal == nil {
		sh.mu.Unlock()
		return
	}
	seq := s.wal.append(key, e, purge)
	sh.mu.Unlock()
	if s.deferred {
		s.last = max(s.last, seq)
		return
	}
	s.wal.ack(seq)
}

// Deferred returns a view of the engine for one goroutine's run of
// writes that is acknowledged as a whole: each write through the view
// is applied and logged like any other but returns without the fsync
// policy's wait, and Wait then blocks once, for the last of them. Under
// FsyncAlways a run of n writes costs one group commit instead of n
// serial ones. Where no write waits — a memory-only engine, or any
// other policy — the view is the engine itself.
func (s *Sharded) Deferred() *Sharded {
	if s.wal == nil || s.wal.o.Fsync != FsyncAlways || s.deferred {
		return s
	}
	return &Sharded{sharded: s.sharded, deferred: true}
}

// Wait blocks until every write made through a Deferred view is as
// durable as the fsync policy promises and returns the engine's sticky
// error: non-nil means no write of the run may be acknowledged.
func (s *Sharded) Wait() error {
	if s.deferred {
		s.wal.ack(s.last)
	}
	return s.Err()
}

// Delete tombstones key at a fresh clock version and reports whether a
// live value existed. It records the tombstone even when the key was
// never present, so the deletion can propagate to replicas that do hold
// a copy.
func (s *Sharded) Delete(key string) (uint64, bool) {
	sh := s.shardFor(key)
	sh.mu.Lock()
	ver := s.clock.Next()
	existed := sh.t.del(key, ver)
	s.logAndUnlock(sh, key, Entry{Version: ver, Tombstone: true}, false)
	return ver, existed
}

// Merge applies e iff e.Wins the resident entry, observing e.Version
// on the clock either way. It returns the winning version and whether e
// was applied. Only an applied merge is logged — and it is logged as
// the exact entry installed, so replay needs no Wins re-judging.
func (s *Sharded) Merge(key string, e Entry) (uint64, bool) {
	s.clock.Observe(e.Version)
	sh := s.shardFor(key)
	sh.mu.Lock()
	winner, applied := sh.t.merge(key, e)
	if !applied {
		sh.mu.Unlock()
		return winner, false
	}
	s.logAndUnlock(sh, key, e, false)
	return winner, true
}

// Purge removes key's entry outright — no tombstone, no version stamp
// — iff its version is at most version, so a purge never takes a write
// newer than the copy it was aimed at. Anti-entropy uses it to drop
// copies a backend holds outside the buckets it owns; tests pass
// math.MaxUint64 to simulate data loss. It reports whether an entry was
// removed. The removal is logged as a purge record, the one garbage
// collection writes.
func (s *Sharded) Purge(key string, version uint64) bool {
	sh := s.shardFor(key)
	sh.mu.Lock()
	if !sh.t.purge(key, version) {
		sh.mu.Unlock()
		return false
	}
	s.logAndUnlock(sh, key, Entry{}, true)
	return true
}

// Len reports the number of non-tombstone entries: Counts' live.
func (s *Sharded) Len() int {
	live, _ := s.Counts()
	return live
}

// Sweep garbage-collects tombstones older than the engine's GC age and
// returns how many it removed. Shards are swept in rotation starting at
// a persistent cursor, stopping once roughly limit entries have been
// scanned (always at least one shard; limit <= 0 sweeps everything), so
// a bounded sweep converges on the full store across calls instead of
// re-scanning the same prefix.
func (s *Sharded) Sweep(limit int) (purged int) {
	gcBefore := s.now().Add(-s.gcAge).UnixMilli()
	scanned := 0
	var onPurge func(string)
	if s.wal != nil {
		// GC'd tombstones are logged as purges so a reopen cannot
		// resurrect them; sweeps are not client-acked, so the records
		// just ride the next fsync.
		onPurge = func(k string) { s.wal.append(k, Entry{}, true) }
	}
	for i := 0; i < len(s.shards); i++ {
		sh := &s.shards[(s.cursor.Add(1)-1)&s.mask]
		sh.mu.Lock()
		scanned += sh.t.size()
		purged += sh.t.sweep(gcBefore, onPurge)
		sh.mu.Unlock()
		if limit > 0 && scanned >= limit {
			break
		}
	}
	sweepPurged.Add(uint64(purged))
	return purged
}

// Counts reports the live entries and the resident tombstones, whose
// sum is what a RangeBuckets over every bucket visits, in one pass over
// the shard counters — the feed for the store.entries /
// store.tombstones gauges.
func (s *Sharded) Counts() (live, tombstones int) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		live += sh.t.live
		tombstones += sh.t.size() - sh.t.live
		sh.mu.Unlock()
	}
	return live, tombstones
}

// census reports the resident entries, tombstones included, and the
// log bytes their records take as frames — the live image the cleaner
// paces itself by — in one pass over the shard counters.
func (s *Sharded) census() (entries int, image int64) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		entries += sh.t.size()
		image += sh.t.image
		sh.mu.Unlock()
	}
	return entries, image
}

// scanBuckets calls fn with every entry of the buckets want marks, one
// shard at a time under that shard's lock. Shard i holds the buckets
// congruent to i modulo the shard count (the bucket mask refines the
// shard mask), so a shard none of whose buckets is wanted is skipped
// and any other is walked once.
func (s *Sharded) scanBuckets(want []bool, fn func(b int, key string, e Entry) bool) {
	for i := range s.shards {
		held := false
		for b := i; b < len(want) && !held; b += len(s.shards) {
			held = want[b]
		}
		if !held {
			continue
		}
		sh := &s.shards[i]
		sh.mu.Lock()
		more := sh.t.scan(want, fn)
		sh.mu.Unlock()
		if !more {
			return
		}
	}
}

// RangeBuckets calls fn with every raw entry (tombstones included)
// whose key hashes into a Merkle bucket b with want[b] set (see
// BucketOf; want has one flag per bucket, len Buckets(), so a caller
// that lists often keeps one set and marks it anew) — how the
// anti-entropy protocol lists exactly the divergent buckets, and the
// engine's one listing: every bucket marked lists the whole store.
// Nothing is copied: fn runs under the lock of the shard it is reading,
// one scan per shard however many of its buckets are marked, so fn must
// be brief, must not call back into the engine, and must copy a key or
// a value it keeps: both alias the record, which the next write to its
// key may rewrite in place. fn returning false stops the iteration.
func (s *Sharded) RangeBuckets(want []bool, fn func(key string, e Entry) bool) {
	if len(want) != s.merkle.buckets {
		panic(fmt.Sprintf("store: RangeBuckets over %d buckets, the engine has %d", len(want), s.merkle.buckets))
	}
	s.scanBuckets(want, func(_ int, k string, e Entry) bool { return fn(k, e) })
}

// Buckets reports the Merkle leaf count, fixed when the engine was
// created — Digest().Buckets() without rebuilding anything.
func (s *Sharded) Buckets() int { return s.merkle.buckets }

// Clock returns the engine's version clock, so a coordinator can stamp
// or observe versions consistently with local writes.
func (s *Sharded) Clock() *Clock { return s.clock }
